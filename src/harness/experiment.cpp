#include "src/harness/experiment.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace sdsm::harness {

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

struct Cell {
  std::string_view key;
  api::Gate gate;
  std::string text;
  bool is_string;
};

/// Every column of `r` in emission order: the row key, the kernel-result
/// columns, the coherence counters (when `coherence`), then the harness's
/// own.  The one column declaration behind print_csv, print_json and the
/// JSON "columns" header.
std::vector<Cell> cells(const Row& r, bool coherence) {
  std::vector<Cell> out;
  const auto str = [&out](std::string_view key, const std::string& v) {
    out.push_back({key, api::Gate::kNone, v, true});
  };
  const auto num = [&out](std::string_view key, api::Gate gate, auto v) {
    // Reals print fixed: timings (`*seconds`) to the microsecond, every
    // other real (speedup, megabytes, barriers, throughput) to 3 places.
    std::ostringstream os;
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      os << std::fixed << std::setprecision(key.ends_with("seconds") ? 6 : 3);
    }
    os << v;
    out.push_back({key, gate, os.str(), false});
  };
  const auto field = [&num](const api::ResultField& f, const auto& v) {
    if (f.gate != api::Gate::kHidden) num(f.name, f.gate, v);
  };
  str("group", r.group);
  str("variant", r.variant);
  api::for_each_result_field(field, r.result);
  if (coherence) api::for_each_tmk_counter(field, r.result.tmk);
  num("speedup", api::Gate::kNone, r.speedup);
  num("seq_seconds", api::Gate::kNone, r.seq_seconds);
  str("schedule", r.schedule);
  num("jobs_per_sec", api::Gate::kHigher, r.jobs_per_sec);
  num("cache_hits", api::Gate::kExact, r.cache_hits);
  str("note", r.note);
  return out;
}

/// api::Gate as the "columns" header spells it (kHidden never emits).
const char* gate_name(api::Gate g) {
  constexpr const char* kNames[] = {"exact", "lower", "higher", "none",
                                    "none"};
  return kNames[static_cast<std::size_t>(g)];
}

}  // namespace

Row kernel_row(std::string group, std::string variant,
               const api::KernelResult& r, double seq_seconds,
               std::string note) {
  Row row;
  row.group = std::move(group);
  row.variant = std::move(variant);
  row.result = r;
  row.speedup = speedup(seq_seconds, r.seconds);
  row.seq_seconds = seq_seconds;
  row.note = std::move(note);
  return row;
}

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::add(Row row) { rows_.push_back(std::move(row)); }

double speedup(double seq_seconds, double par_seconds) {
  if (par_seconds <= 0) return 0;
  return seq_seconds / par_seconds;
}

void Table::print(std::ostream& os) const {
  os << "=== " << title_ << " ===\n";
  os << std::left << std::setw(34) << "Group" << std::setw(16) << "Variant"
     << std::right << std::setw(10) << "Time(s)" << std::setw(9) << "Speedup"
     << std::setw(10) << "Messages" << std::setw(10) << "Data(MB)"
     << std::setw(12) << "Ovhd(s)" << std::setw(10) << "Barr/step"
     << std::setw(10) << "Rebuilds" << "  Note\n";
  std::string last_group;
  for (const Row& row : rows_) {
    const api::KernelResult& r = row.result;
    const bool first_of_group = row.group != last_group;
    os << std::left << std::setw(34) << (first_of_group ? row.group : "")
       << std::setw(16) << row.variant << std::right << std::fixed
       << std::setprecision(3) << std::setw(10) << r.seconds
       << std::setprecision(2) << std::setw(9) << row.speedup
       << std::setw(10) << r.messages << std::setprecision(2)
       << std::setw(10) << r.megabytes << std::setprecision(4)
       << std::setw(12) << r.overhead_seconds << std::setprecision(1)
       << std::setw(10) << r.barriers_per_step << std::setw(10)
       << r.rebuilds << "  " << row.note << "\n";
    last_group = row.group;
  }
  os << "\n";
}

void Table::print_csv(std::ostream& os) const {
  const auto line = [&os](const std::vector<Cell>& cs, bool header) {
    os << "# csv: ";
    bool first = true;
    for (const Cell& c : cs) {
      if (c.key == "note") continue;  // free text may carry commas
      os << (first ? "" : ",") << (header ? std::string(c.key) : c.text);
      first = false;
    }
    os << "\n";
  };
  line(cells(Row{}, false), true);
  for (const Row& r : rows_) line(cells(r, false), false);
}

void Table::print_json(std::ostream& os) const {
  os << "{\n  \"title\": ";
  json_string(os, title_);
  os << ",\n  \"columns\": [";
  const std::vector<Cell> header = cells(Row{}, true);
  for (std::size_t i = 0; i < header.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"key\": \"" << header[i].key
       << "\", \"gate\": \"" << gate_name(header[i].gate) << "\"}";
  }
  os << "\n  ],\n  \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {";
    bool first = true;
    for (const Cell& c : cells(rows_[i], rows_[i].coherence_cols)) {
      os << (first ? "\"" : ", \"") << c.key << "\": ";
      if (c.is_string) {
        json_string(os, c.text);
      } else {
        os << c.text;
      }
      first = false;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool Table::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  print_json(f);
  return static_cast<bool>(f);
}

}  // namespace sdsm::harness
