// Paper-figure reports computed straight from a mapped GMST store.
//
// The report loops live once, in analysis/reports.h; this module supplies
// only the store's view of them, which reads the mapped columns in place,
// and the entry points below. The in-memory entry points
// (analysis::compute_prevalence & friends) run the same loops over the
// CountryAnalysis tree, and both render through analysis::report_json, so a
// report from a store is byte-identical to one from the analyses the store
// was written from whenever the Writer/Reader round trip preserves the
// columns (tested in test_store).
#pragma once

#include <string_view>

#include "analysis/flows.h"
#include "analysis/per_site.h"
#include "analysis/policy.h"
#include "analysis/prevalence.h"
#include "store/reader.h"
#include "util/json.h"
#include "util/status.h"

namespace gam::store {

analysis::PrevalenceReport prevalence_report(const Reader& reader);  // Figure 3
/// Reads each country's policy class from world::CountryDb; every code in
/// the store must be known to this process (report_json checks first).
analysis::PolicyReport policy_report(const Reader& reader);          // Table 1
analysis::PerSiteReport per_site_report(const Reader& reader);       // Figure 4
analysis::FlowsReport flows_report(const Reader& reader);            // Figure 5 / §6.3

/// Figure 2b load-success view; matches analysis::coverage_json bytes.
util::Json coverage_json(const Reader& reader);
/// §5 funnel; matches analysis::funnel_json bytes.
util::Json funnel_json(const Reader& reader);
/// The study-summary.json body; matches the `gamma study --out` file bytes.
util::Json summary_json(const Reader& reader);

/// The one report-name table behind `gamma store query --report R` and the
/// daemon's query handler: summary|prevalence|policy|per-site|flows|
/// coverage|funnel. An unknown name is invalid_argument; a policy report
/// over a country code this process has no policy record for (a synthetic
/// code from another process's scale world, say) is failed_precondition.
util::StatusOr<util::Json> report_json(const Reader& reader, std::string_view name);

}  // namespace gam::store
