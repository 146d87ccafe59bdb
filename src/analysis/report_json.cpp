#include "analysis/report_json.h"

namespace gam::analysis {

namespace {

util::Json box_json(const util::BoxStats& b) {
  util::Json doc = util::Json::object();
  doc["n"] = b.n;
  doc["min"] = b.min;
  doc["q1"] = b.q1;
  doc["median"] = b.median;
  doc["q3"] = b.q3;
  doc["max"] = b.max;
  doc["mean"] = b.mean;
  doc["stddev"] = b.stddev;
  doc["iqr"] = b.iqr;
  doc["whisker_lo"] = b.whisker_lo;
  doc["whisker_hi"] = b.whisker_hi;
  util::Json outliers = util::Json::array();
  for (double v : b.outliers) outliers.push_back(v);
  doc["outliers"] = std::move(outliers);
  return doc;
}

util::Json counts_json(const std::map<std::string, size_t>& m) {
  util::Json doc = util::Json::object();
  for (const auto& [k, v] : m) doc[k] = v;
  return doc;
}

}  // namespace

util::Json to_json(const PrevalenceReport& report) {
  util::Json doc = util::Json::object();
  util::Json rows = util::Json::array();
  for (const auto& r : report.rows) {
    util::Json row = util::Json::object();
    row["country"] = r.country;
    row["pct_reg"] = r.pct_reg;
    row["pct_gov"] = r.pct_gov;
    row["n_reg"] = r.n_reg;
    row["n_gov"] = r.n_gov;
    rows.push_back(std::move(row));
  }
  doc["rows"] = std::move(rows);
  doc["mean_reg"] = report.mean_reg;
  doc["stddev_reg"] = report.stddev_reg;
  doc["mean_gov"] = report.mean_gov;
  doc["stddev_gov"] = report.stddev_gov;
  doc["pearson_reg_gov"] = report.pearson_reg_gov;
  return doc;
}

util::Json to_json(const PolicyReport& report) {
  util::Json doc = util::Json::object();
  util::Json rows = util::Json::array();
  for (const auto& r : report.rows) {
    util::Json row = util::Json::object();
    row["country"] = r.country;
    row["policy"] = world::policy_name(r.policy);
    row["enacted"] = r.enacted;
    row["nonlocal_pct"] = r.nonlocal_pct;
    rows.push_back(std::move(row));
  }
  doc["rows"] = std::move(rows);
  doc["spearman_strictness_vs_rate"] = report.spearman_strictness_vs_rate;
  return doc;
}

util::Json to_json(const PerSiteReport& report) {
  util::Json doc = util::Json::object();
  util::Json rows = util::Json::array();
  for (const auto& r : report.rows) {
    util::Json row = util::Json::object();
    row["country"] = r.country;
    row["reg"] = box_json(r.reg);
    row["gov"] = box_json(r.gov);
    row["combined"] = box_json(r.combined);
    row["skew_combined"] = r.skew_combined;
    rows.push_back(std::move(row));
  }
  doc["rows"] = std::move(rows);
  return doc;
}

util::Json to_json(const FlowsReport& report) {
  util::Json doc = util::Json::object();
  util::Json flows = util::Json::object();
  for (const auto& [source, dests] : report.website_flows) {
    flows[source] = counts_json(dests);
  }
  doc["website_flows"] = std::move(flows);
  doc["sites_with_nonlocal"] = report.sites_with_nonlocal;
  doc["source_site_counts"] = counts_json(report.source_site_counts);
  util::Json dest_pct = util::Json::object();
  for (const auto& [dest, pct] : report.dest_pct) dest_pct[dest] = pct;
  doc["dest_pct"] = std::move(dest_pct);
  doc["dest_fanin"] = counts_json(report.dest_fanin);
  doc["dest_fanin_reg"] = counts_json(report.dest_fanin_reg);
  doc["dest_fanin_gov"] = counts_json(report.dest_fanin_gov);
  return doc;
}

util::Json study_summary_json(size_t countries, const PrevalenceReport& prevalence,
                              const FlowsReport& flows) {
  util::Json summary = util::Json::object();
  summary["countries"] = countries;
  summary["sites_with_nonlocal"] = flows.sites_with_nonlocal;
  summary["mean_reg_prevalence"] = prevalence.mean_reg;
  summary["mean_gov_prevalence"] = prevalence.mean_gov;
  util::Json dests = util::Json::object();
  for (const auto& [dest, pct] : flows.dest_pct) dests[dest] = pct;
  summary["destination_pct"] = std::move(dests);
  return summary;
}

}  // namespace gam::analysis
