#include "pdcu/obs/exposition.hpp"

namespace pdcu::obs {

namespace {

/// Indexed by Exposition::Type.
constexpr std::string_view kTypeNames[] = {"counter", "gauge", "histogram"};

}  // namespace

Exposition& Exposition::family(std::string_view name, Type type,
                               std::string_view help) {
  family_ = name;
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += kTypeNames[static_cast<std::size_t>(type)];
  out_ += '\n';
  return *this;
}

Exposition& Exposition::sample(Labels labels, std::uint64_t value) {
  write({}, labels, {}, std::to_string(value));
  return *this;
}

Exposition& Exposition::sample(Labels labels, std::string_view value) {
  write({}, labels, {}, value);
  return *this;
}

Exposition& Exposition::histogram(Labels labels,
                                  const Histogram::Snapshot& snapshot) {
  // Every exposed boundary is a power of four, so it coincides exactly
  // with an internal power-of-two bucket edge: the cumulative counts are
  // exact, not interpolated.
  for (std::uint64_t bound = 1; bound <= (std::uint64_t{1} << 26);
       bound *= 4) {
    write("_bucket", labels, std::to_string(bound),
          std::to_string(snapshot.cumulative(Histogram::bucket_index(bound))));
  }
  write("_bucket", labels, "+Inf", std::to_string(snapshot.count));
  write("_sum", labels, {}, std::to_string(snapshot.sum));
  write("_count", labels, {}, std::to_string(snapshot.count));
  return *this;
}

void Exposition::write(std::string_view suffix, Labels labels,
                       std::string_view le, std::string_view value) {
  out_ += family_;
  out_ += suffix;
  if (labels.size() > 0 || !le.empty()) {
    char separator = '{';
    for (const Label& label : labels) {
      out_ += separator;
      out_ += label.name;
      out_ += "=\"";
      out_ += label.value;
      out_ += '"';
      separator = ',';
    }
    if (!le.empty()) {
      out_ += separator;
      out_ += "le=\"";
      out_ += le;
      out_ += '"';
    }
    out_ += '}';
  }
  out_ += ' ';
  out_ += value;
  out_ += '\n';
}

}  // namespace pdcu::obs
