#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/check.h"

namespace netstore::obs {

std::string format_double(double d) {
  NETSTORE_CHECK(!std::isnan(d), "report value is NaN");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", d);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Cell::json() const {
  switch (kind_) {
    case Kind::kString: {
      std::string out = "\"";
      out += json_escape(str_);
      out += '"';
      return out;
    }
    case Kind::kInt:
      return std::to_string(i64_);
    case Kind::kUInt:
      return std::to_string(u64_);
    case Kind::kDouble:
      return format_double(num_);
  }
  return "null";
}

std::string Cell::csv() const {
  if (kind_ != Kind::kString) return json();  // numbers render identically
  if (str_.find_first_of(",\"\n") == std::string::npos) return str_;
  std::string out = "\"";
  for (const char c : str_) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void ReportTable::row(std::vector<Cell> cells) {
  NETSTORE_CHECK_EQ(cells.size(), columns.size(),
                    "report row width does not match the table header");
  rows.push_back(std::move(cells));
}

ReportTable& Report::table(const std::string& name,
                           std::vector<std::string> columns) {
  for (const auto& t : tables_) {
    NETSTORE_CHECK(t->name != name, "duplicate report table name");
  }
  tables_.push_back(
      std::make_unique<ReportTable>(ReportTable{name, std::move(columns), {}}));
  return *tables_.back();
}

void Report::add_snapshot(const std::string& label,
                          MetricsRegistry::Snapshot snap) {
  snapshots_.emplace_back(label, std::move(snap));
}

void Report::add_trace_summary(const std::string& label, Tracer& tracer) {
  ReportTable& t =
      table("trace:" + label, {"scope", "count", "mean_us", "min_us", "max_us",
                               "p50_us", "p95_us", "p99_us", "p999_us"});
  const auto row_of = [&t](const std::string& scope, sim::Sampler& s) {
    const sim::Sampler::Summary sum = s.summary();
    t.row({scope, static_cast<std::uint64_t>(sum.count), sum.mean, sum.min,
           sum.max, sum.p50, sum.p95, sum.p99, sum.p999});
  };
  row_of("total", tracer.total_us());
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const auto c = static_cast<Component>(i);
    row_of(std::string("component:") + to_string(c), tracer.component_us(c));
  }
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const auto op = static_cast<Op>(i);
    row_of(std::string("op:") + to_string(op), tracer.op_total_us(op));
  }
}

namespace {

void metric_json(std::ostringstream& os, const MetricValue& v) {
  switch (v.kind) {
    case MetricValue::Kind::kCounter:
      os << "{\"kind\":\"counter\",\"value\":" << v.count << "}";
      break;
    case MetricValue::Kind::kSampler:
      os << "{\"kind\":\"sampler\",\"count\":" << v.summary.count
         << ",\"mean\":" << format_double(v.summary.mean)
         << ",\"min\":" << format_double(v.summary.min)
         << ",\"max\":" << format_double(v.summary.max)
         << ",\"p50\":" << format_double(v.summary.p50)
         << ",\"p95\":" << format_double(v.summary.p95)
         << ",\"p99\":" << format_double(v.summary.p99)
         << ",\"p999\":" << format_double(v.summary.p999) << "}";
      break;
  }
}

}  // namespace

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"format\":\"netstore-report-v1\",\"bench\":\""
     << json_escape(bench_) << "\",\"reproduces\":\""
     << json_escape(reproduces_) << "\",\"tables\":[";
  for (std::size_t ti = 0; ti < tables_.size(); ++ti) {
    const ReportTable& t = *tables_[ti];
    if (ti > 0) os << ",";
    os << "{\"name\":\"" << json_escape(t.name) << "\",\"columns\":[";
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"" << json_escape(t.columns[i]) << "\"";
    }
    os << "],\"rows\":[";
    for (std::size_t ri = 0; ri < t.rows.size(); ++ri) {
      if (ri > 0) os << ",";
      os << "[";
      for (std::size_t ci = 0; ci < t.rows[ri].size(); ++ci) {
        if (ci > 0) os << ",";
        os << t.rows[ri][ci].json();
      }
      os << "]";
    }
    os << "]}";
  }
  os << "],\"snapshots\":[";
  for (std::size_t si = 0; si < snapshots_.size(); ++si) {
    if (si > 0) os << ",";
    os << "{\"label\":\"" << json_escape(snapshots_[si].first)
       << "\",\"metrics\":{";
    bool first = true;
    for (const auto& [key, value] : snapshots_[si].second) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(key) << "\":";
      metric_json(os, value);
    }
    os << "}}";
  }
  os << "]}\n";
  return os.str();
}

std::string Report::csv() const {
  std::ostringstream os;
  os << "# bench," << bench_ << "\n";
  for (const auto& tp : tables_) {
    const ReportTable& t = *tp;
    os << "# table," << t.name << "\n";
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      if (i > 0) os << ",";
      os << t.columns[i];
    }
    os << "\n";
    for (const std::vector<Cell>& row : t.rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i > 0) os << ",";
        os << row[i].csv();
      }
      os << "\n";
    }
  }
  for (const auto& [label, snap] : snapshots_) {
    os << "# snapshot," << label << "\n";
    os << "key,kind,count,mean,min,max,p50,p95,p99,p999\n";
    for (const auto& [key, v] : snap) {
      const char* kind =
          v.kind == MetricValue::Kind::kCounter ? "counter" : "sampler";
      os << key << "," << kind << "," << v.count;
      if (v.kind == MetricValue::Kind::kSampler) {
        os << "," << format_double(v.summary.mean) << ","
           << format_double(v.summary.min) << ","
           << format_double(v.summary.max) << ","
           << format_double(v.summary.p50) << ","
           << format_double(v.summary.p95) << ","
           << format_double(v.summary.p99) << ","
           << format_double(v.summary.p999);
      }
      os << "\n";
    }
  }
  return os.str();
}

bool Report::write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out.flush());
}

}  // namespace netstore::obs
