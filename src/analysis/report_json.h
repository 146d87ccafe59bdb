// Canonical JSON renderings of the §6 report structs.
//
// The reports themselves are computed once, in analysis/reports.h, over
// either study view: the in-memory analyses (compute_prevalence & friends)
// or a mapped GMST store (store::reports). Both paths render through these
// emitters, so any field added to a report is added here, once, for both.
#pragma once

#include "analysis/flows.h"
#include "analysis/per_site.h"
#include "analysis/policy.h"
#include "analysis/prevalence.h"
#include "util/json.h"

namespace gam::analysis {

util::Json to_json(const PrevalenceReport& report);   // Figure 3
util::Json to_json(const PolicyReport& report);       // Table 1
util::Json to_json(const PerSiteReport& report);      // Figure 4
util::Json to_json(const FlowsReport& report);        // Figure 5 / §6.3

/// Per-country site coverage (Figure 2b's load-success view):
/// {"rows": [{country, sites, loaded, pct}...]}.
util::Json coverage_json(const std::vector<CountryAnalysis>& countries);

/// Per-country §5 funnel tallies plus study-wide totals.
util::Json funnel_json(const std::vector<CountryAnalysis>& countries);

/// The CLI's study-summary.json body — shared so `gamma study --out` and
/// `gamma store query --report summary` emit the same bytes.
util::Json study_summary_json(size_t countries, const PrevalenceReport& prevalence,
                              const FlowsReport& flows);

}  // namespace gam::analysis
