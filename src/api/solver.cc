#include "src/api/solver.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace scwsc {
namespace api {

std::string CapabilitiesToString(unsigned capabilities) {
  static constexpr struct {
    unsigned bit;
    const char* name;
  } kNames[] = {
      {kNeedsSetSystem, "set-system"}, {kNeedsTable, "table"},
      {kNeedsHierarchy, "hierarchy"},  {kSupportsAnytime, "anytime"},
      {kExact, "exact"},
  };
  std::string out;
  for (const auto& entry : kNames) {
    if ((capabilities & entry.bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += entry.name;
  }
  return out;
}

std::string_view OptionTypeToString(OptionType type) {
  switch (type) {
    case OptionType::kDouble:
      return "double";
    case OptionType::kU64:
      return "u64";
    case OptionType::kBool:
      return "bool";
    case OptionType::kString:
      return "string";
  }
  return "string";
}

Status OptionsBag::Validate(const OptionsSpec& spec,
                            const std::string& solver_name) const {
  for (const auto& [key, value] : kv_) {
    if (std::any_of(spec.begin(), spec.end(),
                    [&](const OptionSpec& opt) { return opt.name == key; })) {
      continue;
    }
    std::string accepted;
    for (const OptionSpec& opt : spec) {
      if (!accepted.empty()) accepted += ", ";
      accepted += opt.name;
    }
    return Status::InvalidArgument(
        "unknown option '" + key + "' for solver '" + solver_name + "'" +
        (accepted.empty() ? " (this solver takes no options)"
                          : "; accepted options: " + accepted));
  }
  for (const OptionSpec& opt : spec) {
    if (opt.required && !Has(opt.name)) {
      return Status::InvalidArgument("solver '" + solver_name +
                                     "' requires option '" + opt.name + "'");
    }
  }
  return Status::OK();
}

std::string OptionsBag::CanonicalString() const {
  std::string out;  // kv_ is a std::map: already sorted by key
  for (const auto& [key, value] : kv_) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

Result<OptionsBag> OptionsBag::Parse(const std::vector<std::string>& items) {
  OptionsBag bag;
  for (const std::string& item : items) {
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) {
      return Status::InvalidArgument("option '" + item +
                                     "' is not of the form key=value");
    }
    bag.Set(item.substr(0, eq), item.substr(eq + 1));
  }
  return bag;
}

OptionsBag& OptionsBag::Set(std::string key, std::string value) {
  kv_[std::move(key)] = std::move(value);
  return *this;
}

Result<double> OptionsBag::GetDouble(const std::string& key,
                                     double fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option " + key + "='" + it->second +
                                   "' is not a number");
  }
  return *parsed;
}

Result<std::uint64_t> OptionsBag::GetU64(const std::string& key,
                                         std::uint64_t fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  auto parsed = ParseU64(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option " + key + "='" + it->second +
                                   "' is not a non-negative integer");
  }
  return *parsed;
}

Result<bool> OptionsBag::GetBool(const std::string& key, bool fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return Status::InvalidArgument("option " + key + "='" + v +
                                 "' is not a boolean (true/false)");
}

Result<std::string> OptionsBag::GetString(const std::string& key,
                                          std::string fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? std::move(fallback) : it->second;
}

SolveRequest::Builder& SolveRequest::Builder::WithOptions(
    const std::vector<std::string>& items) {
  auto parsed = OptionsBag::Parse(items);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  for (const auto& [key, value] : parsed->items()) {
    request_.options.Set(key, value);
  }
  return *this;
}

Result<SolveRequest> SolveRequest::Builder::Build() const {
  SCWSC_RETURN_NOT_OK(deferred_);
  return request_;
}

}  // namespace api
}  // namespace scwsc
