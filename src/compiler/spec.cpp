#include "compiler/spec.h"

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

const char* distill_policy_name(DistillPolicy policy) {
  switch (policy) {
    case DistillPolicy::kKnee: return "knee";
    case DistillPolicy::kMinArea: return "min_area";
    case DistillPolicy::kMinDelay: return "min_delay";
    case DistillPolicy::kMinEnergy: return "min_energy";
    case DistillPolicy::kMaxThroughput: return "max_throughput";
    case DistillPolicy::kAll: return "all";
  }
  SEGA_ASSERT(false);
  return "";
}

std::optional<DistillPolicy> distill_policy_from_name(
    const std::string& name) {
  const std::string n = to_lower(trim(name));
  for (const DistillPolicy p :
       {DistillPolicy::kKnee, DistillPolicy::kMinArea, DistillPolicy::kMinDelay,
        DistillPolicy::kMinEnergy, DistillPolicy::kMaxThroughput,
        DistillPolicy::kAll}) {
    if (n == distill_policy_name(p)) return p;
  }
  return std::nullopt;
}

namespace {

SpecKey parse_limits_key(const std::string& key, const Json& value,
                         SpaceConstraints* limits, std::string* error) {
  std::int64_t* field = key == "max_l"   ? &limits->max_l
                        : key == "max_h" ? &limits->max_h
                        : key == "max_n" ? &limits->max_n
                                         : nullptr;
  if (field == nullptr) return SpecKey::kUnknown;
  if (!check_spec_number(key, value, error)) return SpecKey::kInvalid;
  if (value.as_int() < 1) {
    if (error) *error = strfmt("%s must be a positive integer", key.c_str());
    return SpecKey::kInvalid;
  }
  *field = value.as_int();
  return SpecKey::kParsed;
}

SpecKey parse_dse_key(const std::string& key, const Json& value,
                      Nsga2Options* dse, std::string* error) {
  if (key != "population" && key != "generations" && key != "seed" &&
      key != "threads") {
    return SpecKey::kUnknown;
  }
  if (!check_spec_number(key, value, error)) return SpecKey::kInvalid;
  const auto invalid = [&](const char* msg) {
    if (error) *error = msg;
    return SpecKey::kInvalid;
  };
  const std::int64_t v = value.as_int();
  if (key == "population") {
    if (v < 4) return invalid("population must be >= 4");
    dse->population = static_cast<int>(v);
  } else if (key == "generations") {
    if (v < 1) return invalid("generations must be >= 1");
    dse->generations = static_cast<int>(v);
  } else if (key == "seed") {
    dse->seed = static_cast<std::uint64_t>(v);
  } else {
    if (v < 0) return invalid("threads must be >= 0");
    dse->threads = static_cast<int>(v);
  }
  return SpecKey::kParsed;
}

}  // namespace

SpecKey parse_shared_spec_key(const std::string& key, const Json& value,
                              EvalConfig* eval, SpaceConstraints* limits,
                              Nsga2Options* dse, std::string* error) {
  SpecKey parsed = eval->parse_key(key, value, error);
  if (parsed == SpecKey::kUnknown) {
    parsed = parse_limits_key(key, value, limits, error);
  }
  if (parsed == SpecKey::kUnknown) {
    parsed = parse_dse_key(key, value, dse, error);
  }
  return parsed;
}

std::optional<CompilerSpec> CompilerSpec::from_json(const Json& json,
                                                    std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<CompilerSpec> {
    if (error) *error = msg;
    return std::nullopt;
  };
  if (!json.is_object()) return fail("spec must be a JSON object");

  CompilerSpec spec;
  for (const auto& [key, value] : json.items()) {
    const SpecKey shared = parse_shared_spec_key(key, value, &spec.eval,
                                                 &spec.limits, &spec.dse,
                                                 error);
    if (shared == SpecKey::kInvalid) return std::nullopt;
    if (shared == SpecKey::kParsed) continue;

    if (key == "wstore") {
      if (!check_spec_number(key, value, error)) return std::nullopt;
      spec.wstore = value.as_int();
      if (spec.wstore < 1) return fail("wstore must be positive");
    } else if (key == "precision") {
      if (!check_spec_string(key, value, error)) return std::nullopt;
      const auto p = precision_from_name(value.as_string());
      if (!p) return fail(strfmt("unknown precision '%s'",
                                 value.as_string().c_str()));
      spec.precision = *p;
    } else if (key == "distill") {
      if (!check_spec_string(key, value, error)) return std::nullopt;
      const auto p = distill_policy_from_name(value.as_string());
      if (!p) return fail(strfmt("unknown distill policy '%s'",
                                 value.as_string().c_str()));
      spec.distill = *p;
    } else if (key == "max_selected") {
      if (!check_spec_number(key, value, error)) return std::nullopt;
      spec.max_selected = static_cast<int>(value.as_int());
      if (spec.max_selected < 1) return fail("max_selected must be >= 1");
    } else if (key == "generate_rtl" || key == "generate_layout" ||
               key == "generate_def") {
      if (!check_spec_bool(key, value, error)) return std::nullopt;
      bool& flag = key == "generate_rtl"      ? spec.generate_rtl
                   : key == "generate_layout" ? spec.generate_layout
                                              : spec.generate_def;
      flag = value.as_bool();
    } else if (key == "cache_file") {
      if (!value.is_string()) return fail("cache_file must be a string path");
      spec.cache_file = value.as_string();
    } else {
      return fail(strfmt("unknown spec key '%s'", key.c_str()));
    }
  }
  return spec;
}

Json CompilerSpec::to_json() const {
  Json j = Json::object();
  j["wstore"] = wstore;
  j["precision"] = precision.name;
  eval.write_keys(&j);
  j["max_l"] = limits.max_l;
  j["max_h"] = limits.max_h;
  j["max_n"] = limits.max_n;
  j["population"] = dse.population;
  j["generations"] = dse.generations;
  j["seed"] = static_cast<std::int64_t>(dse.seed);
  j["threads"] = dse.threads;
  j["distill"] = distill_policy_name(distill);
  j["max_selected"] = max_selected;
  j["generate_rtl"] = generate_rtl;
  j["generate_layout"] = generate_layout;
  j["generate_def"] = generate_def;
  if (!cache_file.empty()) j["cache_file"] = cache_file;
  return j;
}

}  // namespace sega
