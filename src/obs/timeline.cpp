#include "obs/timeline.h"

#include "common/csv.h"

namespace bcn::obs {

const Timeline* TimelineSet::find(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> TimelineSet::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, tl] : series_) out.push_back(name);
  return out;
}

std::size_t TimelineSet::total_points() const {
  std::size_t n = 0;
  for (const auto& [name, tl] : series_) n += tl.size();
  return n;
}

bool TimelineSet::write_csv(const std::filesystem::path& path) const {
  CsvWriter csv({"series", "t", "value"});
  for (const auto& [name, tl] : series_) {
    for (const auto& p : tl.points()) {
      csv.add_row({name, CsvWriter::format(p.t), CsvWriter::format(p.value)});
    }
  }
  return csv.write_file(path);
}

}  // namespace bcn::obs
