#include "cost/eval_config.h"

#include <utility>

#include "cost/calibrate.h"
#include "util/strings.h"

namespace sega {

namespace {

bool spec_type_error(const std::string& msg, std::string* error) {
  if (error) *error = msg;
  return false;
}

/// The keys write_keys and write_identity share.
void write_model_keys(const EvalConfig& eval, Json* j) {
  (*j)["cost_model"] = cost_model_kind_name(eval.backend);
  (*j)["supply_v"] = eval.conditions.supply_v;
  (*j)["sparsity"] = eval.conditions.input_sparsity;
  (*j)["activity"] = eval.conditions.activity;
  if (eval.layout) (*j)["layout"] = true;
}

}  // namespace

bool check_spec_number(const std::string& key, const Json& value,
                       std::string* error) {
  return value.is_number() ||
         spec_type_error(strfmt("spec key '%s' must be a number", key.c_str()),
                         error);
}

bool check_spec_string(const std::string& key, const Json& value,
                       std::string* error) {
  return value.is_string() ||
         spec_type_error(strfmt("%s must be a string", key.c_str()), error);
}

bool check_spec_bool(const std::string& key, const Json& value,
                     std::string* error) {
  return value.is_bool() ||
         spec_type_error(strfmt("%s must be a boolean", key.c_str()), error);
}

SpecKey EvalConfig::parse_key(const std::string& key, const Json& value,
                              std::string* error) {
  const auto invalid = [&](const std::string& msg) {
    if (error) *error = msg;
    return SpecKey::kInvalid;
  };
  if (key == "cost_model") {
    if (!value.is_string()) {
      return invalid("cost_model must be \"analytic\" or \"rtl\"");
    }
    const auto kind = cost_model_kind_from_name(value.as_string());
    if (!kind) {
      return invalid(
          strfmt("unknown cost model '%s'", value.as_string().c_str()));
    }
    backend = *kind;
  } else if (key == "supply_v" || key == "sparsity" || key == "activity") {
    if (!check_spec_number(key, value, error)) return SpecKey::kInvalid;
    const double v = value.as_number();
    if (key == "supply_v") {
      if (!(v > 0)) return invalid("supply_v must be > 0");
      conditions.supply_v = v;
    } else if (key == "sparsity") {
      if (!(v >= 0 && v < 1)) return invalid("sparsity must be in [0, 1)");
      conditions.input_sparsity = v;
    } else {
      if (!(v > 0 && v <= 1)) return invalid("activity must be in (0, 1]");
      conditions.activity = v;
    }
  } else if (key == "calibration_file") {
    if (!value.is_string()) {
      return invalid("calibration_file must be a string path");
    }
    calibration_file = value.as_string();
  } else if (key == "layout") {
    if (!check_spec_bool(key, value, error)) return SpecKey::kInvalid;
    layout = value.as_bool();
  } else {
    return SpecKey::kUnknown;
  }
  return SpecKey::kParsed;
}

void EvalConfig::write_keys(Json* j) const {
  write_model_keys(*this, j);
  if (!calibration_file.empty()) (*j)["calibration_file"] = calibration_file;
}

void EvalConfig::write_identity(Json* j, const Calibration* cal) const {
  write_model_keys(*this, j);
  if (cal != nullptr) (*j)["calibration"] = cal->fingerprint();
}

bool EvalConfig::apply_flags(const std::map<std::string, std::string>& flags,
                             std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const std::pair<const char*, double*> numeric_flags[] = {
      {"sparsity", &conditions.input_sparsity},
      {"supply", &conditions.supply_v}};
  for (const auto& [name, value] : numeric_flags) {
    const auto it = flags.find(name);
    if (it != flags.end() && !parse_number_strict(it->second, value)) {
      return fail(strfmt("bad numeric option value for --%s: '%s'", name,
                         it->second.c_str()));
    }
  }
  if (!(conditions.input_sparsity >= 0 && conditions.input_sparsity < 1) ||
      !(conditions.supply_v > 0)) {
    return fail("option value out of range");
  }
  if (const auto it = flags.find("cost-model"); it != flags.end()) {
    const auto kind = cost_model_kind_from_name(it->second);
    if (!kind) {
      return fail(strfmt("unknown cost model '%s' (expected analytic or rtl)",
                         it->second.c_str()));
    }
    backend = *kind;
  }
  if (const auto it = flags.find("calibration"); it != flags.end()) {
    calibration_file = it->second;
  }
  if (flags.count("layout")) layout = true;
  return true;
}

std::unique_ptr<CostModel> EvalConfig::make_model(const Technology& tech,
                                                  std::string* error) const {
  std::shared_ptr<const Calibration> cal;
  if (!calibration_file.empty()) {
    if (backend != CostModelKind::kAnalytic) {
      if (error) *error = kRtlCalibrationError;
      return nullptr;
    }
    auto loaded = load_calibration_for(calibration_file, tech, conditions,
                                       error);
    if (!loaded) return nullptr;
    cal = std::make_shared<const Calibration>(std::move(*loaded));
  }
  return make_cost_model(backend, tech, conditions, std::move(cal), layout);
}

std::string EvalConfig::identity(const Calibration* cal) const {
  std::string id = strfmt("%d|%.17g|%.17g|%.17g", static_cast<int>(backend),
                          conditions.supply_v, conditions.input_sparsity,
                          conditions.activity);
  if (cal != nullptr) id += "|" + cal->digest();
  if (layout) id += "|layout";
  return id;
}

}  // namespace sega
