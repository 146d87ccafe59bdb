// Serialization and data-handling for volunteer datasets — what Gamma ships
// home and what the analysis pipeline (Figure 1, Box 2) ingests.
//
// Two cleaning steps from the paper live here because they operate on the
// recorded data, not on live measurements:
//   * scrub_webdriver_noise — §5: the Selenium chromedriver generates
//     background requests to Google service endpoints; they must be removed
//     before any analysis (they are not page content);
//   * anonymize — §3.5: after analysis completes, volunteer IPs are replaced
//     by an opaque token.
#pragma once

#include <optional>
#include <string>

#include "core/session.h"
#include "util/json.h"

namespace gam::core {

/// Full dataset -> JSON (round-trippable): the one serializer behind
/// `--out`, `gamma run` and the memory-mode journal. Each measured trace is
/// rendered here, with its OS tool (trace_text), and normalized into the
/// canonical schema ("normalized", plus "normalize_error" when the
/// normalizer refuses the text); a restored trace republishes the document
/// it was read with.
util::Json dataset_to_json(const VolunteerDataset& dataset);

/// JSON -> dataset. nullopt on schema violations. Every trace keeps the
/// "normalized" / "normalize_error" it was read with
/// (TracerouteRecord::published).
std::optional<VolunteerDataset> dataset_from_json(const util::Json& doc);

/// The text `trace`'s OS tool prints for its measured hops: the input
/// dataset_to_json normalizes. Empty for a tool other than the three
/// os_kind_name names, which the normalizer then refuses.
std::string trace_text(const TracerouteRecord& trace);

/// Remove chromedriver background requests (and any requests to the known
/// webdriver service domains) from every site record. Returns the number of
/// requests removed.
size_t scrub_webdriver_noise(VolunteerDataset& dataset);

/// Replace the volunteer's IP with a stable opaque token ("anon-<hash>").
void anonymize(VolunteerDataset& dataset);

}  // namespace gam::core
