#include "explore/plan_codec.h"

#include "common/strings.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>
#include <utility>

namespace wfd {

const char* stdlibTag() {
#if defined(_LIBCPP_VERSION)
  return "libc++";
#elif defined(__GLIBCXX__)
  return "libstdc++";
#else
  return "other";
#endif
}

namespace {

bool parseHex64(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

/// kNoProcess round-trips as the string "none" (the sentinel value
/// itself is not portable as a number).
Json encodeProcessOrNone(ProcessId p) {
  return p == kNoProcess ? Json::str("none")
                         : Json::number(static_cast<std::uint64_t>(p));
}

/// Rejects objects carrying keys outside the allowed set: a misspelled
/// section name ("slowlink", "skew") must be a loud decode error, not a
/// silently dropped fault layer in a hand-written plan.
bool onlyKnownKeys(const Json& obj, std::initializer_list<const char*> allowed,
                   const char* what, std::string* error) {
  for (const auto& [key, value] : obj.fields()) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) {
      if (error != nullptr && error->empty()) {
        *error = std::string(what) + ": unknown field '" + key + "'";
      }
      return false;
    }
  }
  return true;
}

/// Field extraction helpers: each returns false (and fills *error once)
/// on a missing or mis-typed field.
class Reader {
 public:
  Reader(const Json& j, std::string* error) : j_(j), error_(error) {}

  bool uintField(const char* key, std::uint64_t* out, bool required = true) {
    const Json* f = j_.find(key);
    if (f == nullptr) return required ? fail(key, "missing") : true;
    if (f->kind() != Json::Kind::kUInt) return fail(key, "not a number");
    *out = f->asUInt();
    return true;
  }

  /// uintField for a 32-bit field: a larger value is a decode error, not
  /// a silent wrap.
  bool u32Field(const char* key, std::uint32_t* out, bool required = true) {
    std::uint64_t v = *out;
    if (!uintField(key, &v, required)) return false;
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      return fail(key, "above 4294967295");
    }
    *out = static_cast<std::uint32_t>(v);
    return true;
  }

  bool boolField(const char* key, bool* out, bool required = true) {
    const Json* f = j_.find(key);
    if (f == nullptr) return required ? fail(key, "missing") : true;
    if (f->kind() != Json::Kind::kBool) return fail(key, "not a bool");
    *out = f->asBool();
    return true;
  }

  bool stringField(const char* key, std::string* out, bool required = true) {
    const Json* f = j_.find(key);
    if (f == nullptr) return required ? fail(key, "missing") : true;
    if (f->kind() != Json::Kind::kString) return fail(key, "not a string");
    *out = f->asString();
    return true;
  }

  /// A process id as a number. The number 18446744073709551615 is
  /// kNoProcess, which a plan spells "none" (processOrNoneField) or
  /// leaves out: read as a number it would silently drop a fault layer
  /// or turn an isolation into a blackout, so it is a decode error.
  bool processField(const char* key, ProcessId* out, bool required = true) {
    const Json* f = j_.find(key);
    if (f == nullptr) return required ? fail(key, "missing") : true;
    if (f->kind() != Json::Kind::kUInt) return fail(key, "not a process id");
    if (f->asUInt() == kNoProcess) {
      return fail(key, "18446744073709551615 is not a process id");
    }
    *out = static_cast<ProcessId>(f->asUInt());
    return true;
  }

  /// processField that also accepts the string "none" (kNoProcess).
  bool processOrNoneField(const char* key, ProcessId* out) {
    const Json* f = j_.find(key);
    if (f != nullptr && f->kind() == Json::Kind::kString &&
        f->asString() == "none") {
      *out = kNoProcess;
      return true;
    }
    return processField(key, out);
  }

  const Json* arrayField(const char* key) {
    const Json* f = j_.find(key);
    if (f != nullptr && f->kind() != Json::Kind::kArray) {
      fail(key, "not an array");
      return nullptr;
    }
    return f;
  }

  const Json* objectField(const char* key) {
    const Json* f = j_.find(key);
    if (f != nullptr && f->kind() != Json::Kind::kObject) {
      fail(key, "not an object");
      return nullptr;
    }
    return f;
  }

  bool fail(const char* key, const char* why) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string("field '") + key + "': " + why;
    }
    return false;
  }

 private:
  const Json& j_;
  std::string* error_;
};

}  // namespace

Json encodeFuzzPlan(const FuzzPlan& plan) {
  Json j = Json::object();
  j.set("schema", Json::str(kFuzzPlanSchema));
  j.set("stack", Json::str(algoStackName(plan.stack)));
  j.set("processes", Json::number(plan.processCount));
  j.set("sim_seed", Json::number(plan.simSeed));
  j.set("timeout_period", Json::number(plan.timeoutPeriod));
  j.set("min_delay", Json::number(plan.minDelay));
  j.set("max_delay", Json::number(plan.maxDelay));
  j.set("tau_omega", Json::number(plan.tauOmega));
  j.set("omega_mode", Json::str(omegaModeName(plan.omegaMode)));

  Json crashes = Json::array();
  for (const PlanCrash& c : plan.crashes) {
    Json one = Json::object();
    one.set("process", Json::number(c.process));
    one.set("time", Json::number(c.time));
    crashes.push(std::move(one));
  }
  j.set("crashes", std::move(crashes));

  Json partitions = Json::array();
  for (const PlanPartition& p : plan.partitions) {
    Json one = Json::object();
    one.set("start", Json::number(p.start));
    one.set("width", Json::number(p.width));
    one.set("period", Json::number(p.period));
    one.set("isolate", encodeProcessOrNone(p.isolate));
    partitions.push(std::move(one));
  }
  j.set("partitions", std::move(partitions));

  if (plan.chaos.dupNum > 0) {
    Json chaos = Json::object();
    chaos.set("dup_num", Json::number(plan.chaos.dupNum));
    chaos.set("dup_den", Json::number(plan.chaos.dupDen));
    chaos.set("max_extra_copies", Json::number(plan.chaos.maxExtraCopies));
    chaos.set("reorder_jitter", Json::number(plan.chaos.reorderJitter));
    chaos.set("only_touching", encodeProcessOrNone(plan.chaos.onlyTouching));
    j.set("chaos", std::move(chaos));
  }

  if (!plan.skews.empty()) {
    Json skews = Json::array();
    for (const PlanSkew& s : plan.skews) {
      Json one = Json::object();
      one.set("num", Json::number(s.num));
      one.set("den", Json::number(s.den));
      skews.push(std::move(one));
    }
    j.set("skews", std::move(skews));
  }

  if (plan.slowLink.process != kNoProcess) {
    Json slow = Json::object();
    slow.set("process", Json::number(plan.slowLink.process));
    slow.set("factor", Json::number(plan.slowLink.factor));
    j.set("slow_link", std::move(slow));
  }

  // Only emitted when the loss genome is active, so every pre-PR-9 plan
  // keeps its exact legacy encoding — and therefore its fingerprint.
  if (plan.loss.enabled()) {
    Json loss = Json::object();
    if (plan.loss.lossNum > 0) {
      loss.set("loss_num", Json::number(plan.loss.lossNum));
      loss.set("loss_den", Json::number(plan.loss.lossDen));
    }
    if (plan.loss.burstPeriod > 0) {
      loss.set("burst_period", Json::number(plan.loss.burstPeriod));
      loss.set("burst_len", Json::number(plan.loss.burstLen));
    }
    if (plan.loss.activeUntil > 0) {
      loss.set("active_until", Json::number(plan.loss.activeUntil));
    }
    if (plan.loss.oneWayFrom != kNoProcess) {
      loss.set("one_way_from", Json::number(plan.loss.oneWayFrom));
      loss.set("one_way_start", Json::number(plan.loss.oneWayStart));
      loss.set("one_way_width", Json::number(plan.loss.oneWayWidth));
      loss.set("one_way_period", Json::number(plan.loss.oneWayPeriod));
    }
    j.set("loss", std::move(loss));
  }

  Json workload = Json::object();
  workload.set("start", Json::number(plan.workload.start));
  workload.set("interval", Json::number(plan.workload.interval));
  workload.set("per_process", Json::number(plan.workload.perProcess));
  workload.set("causal_chain", Json::boolean(plan.workload.causalChain));
  workload.set("cross_deps", Json::boolean(plan.workload.crossDeps));
  // Only emitted when set, so legacy (all-write) plans keep their exact
  // pre-big-cluster encoding — and therefore their fingerprints.
  if (plan.workload.writers > 0) {
    workload.set("writers", Json::number(plan.workload.writers));
  }
  j.set("workload", std::move(workload));

  if (plan.ecInstances > 0) j.set("ec_instances", Json::number(plan.ecInstances));
  j.set("max_time", Json::number(plan.maxTime));
  return j;
}

std::optional<FuzzPlan> decodeFuzzPlan(const Json& j, std::string* error) {
  // The wrong-type detection for optional sections below inspects the
  // error buffer, so always decode against a real one — a nullptr caller
  // must not change what gets rejected.
  std::string localError;
  if (error == nullptr) error = &localError;
  error->clear();
  if (j.kind() != Json::Kind::kObject) {
    *error = "plan is not a JSON object";
    return std::nullopt;
  }
  if (!onlyKnownKeys(j,
                     {"schema", "stack", "processes", "sim_seed",
                      "timeout_period", "min_delay", "max_delay", "tau_omega",
                      "omega_mode", "crashes", "partitions", "chaos", "skews",
                      "slow_link", "loss", "workload", "ec_instances",
                      "max_time"},
                     "plan", error)) {
    return std::nullopt;
  }
  Reader r(j, error);
  FuzzPlan plan;

  std::string schema;
  if (!r.stringField("schema", &schema)) return std::nullopt;
  if (schema != kFuzzPlanSchema) {
    r.fail("schema", "unknown schema tag");
    return std::nullopt;
  }
  std::string stackName;
  if (!r.stringField("stack", &stackName)) return std::nullopt;
  if (!parseAlgoStack(stackName, &plan.stack)) {
    r.fail("stack", "unknown algorithm stack");
    return std::nullopt;
  }
  std::uint64_t processes = 0;
  if (!r.uintField("processes", &processes)) return std::nullopt;
  plan.processCount = static_cast<std::size_t>(processes);
  if (!r.uintField("sim_seed", &plan.simSeed)) return std::nullopt;
  if (!r.uintField("timeout_period", &plan.timeoutPeriod)) return std::nullopt;
  if (!r.uintField("min_delay", &plan.minDelay)) return std::nullopt;
  if (!r.uintField("max_delay", &plan.maxDelay)) return std::nullopt;
  if (!r.uintField("tau_omega", &plan.tauOmega)) return std::nullopt;
  std::string mode;
  if (!r.stringField("omega_mode", &mode)) return std::nullopt;
  if (!parseOmegaMode(mode, &plan.omegaMode)) {
    r.fail("omega_mode", "unknown omega mode");
    return std::nullopt;
  }

  if (const Json* crashes = r.arrayField("crashes")) {
    for (const Json& one : crashes->items()) {
      if (one.kind() != Json::Kind::kObject ||
          !onlyKnownKeys(one, {"process", "time"}, "crash", error)) {
        return std::nullopt;
      }
      Reader cr(one, error);
      PlanCrash c;
      std::uint64_t p = 0;
      if (!cr.uintField("process", &p) || !cr.uintField("time", &c.time)) {
        return std::nullopt;
      }
      c.process = static_cast<ProcessId>(p);
      plan.crashes.push_back(c);
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* partitions = r.arrayField("partitions")) {
    for (const Json& one : partitions->items()) {
      if (one.kind() != Json::Kind::kObject ||
          !onlyKnownKeys(one, {"start", "width", "period", "isolate"},
                         "partition", error)) {
        return std::nullopt;
      }
      Reader pr(one, error);
      PlanPartition p;
      if (!pr.uintField("start", &p.start) || !pr.uintField("width", &p.width) ||
          !pr.uintField("period", &p.period) ||
          !pr.processOrNoneField("isolate", &p.isolate)) {
        return std::nullopt;
      }
      plan.partitions.push_back(p);
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* chaos = r.objectField("chaos")) {
    if (!onlyKnownKeys(*chaos,
                       {"dup_num", "dup_den", "max_extra_copies",
                        "reorder_jitter", "only_touching"},
                       "chaos", error)) {
      return std::nullopt;
    }
    Reader cr(*chaos, error);
    if (!cr.u32Field("dup_num", &plan.chaos.dupNum) ||
        !cr.u32Field("dup_den", &plan.chaos.dupDen) ||
        !cr.u32Field("max_extra_copies", &plan.chaos.maxExtraCopies) ||
        !cr.uintField("reorder_jitter", &plan.chaos.reorderJitter) ||
        !cr.processOrNoneField("only_touching", &plan.chaos.onlyTouching)) {
      return std::nullopt;
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* skews = r.arrayField("skews")) {
    for (const Json& one : skews->items()) {
      if (one.kind() != Json::Kind::kObject ||
          !onlyKnownKeys(one, {"num", "den"}, "skew", error)) {
        return std::nullopt;
      }
      Reader sr(one, error);
      PlanSkew s;
      if (!sr.uintField("num", &s.num) || !sr.uintField("den", &s.den)) {
        return std::nullopt;
      }
      plan.skews.push_back(s);
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* slow = r.objectField("slow_link")) {
    if (!onlyKnownKeys(*slow, {"process", "factor"}, "slow_link", error)) {
      return std::nullopt;
    }
    Reader sr(*slow, error);
    if (!sr.processField("process", &plan.slowLink.process) ||
        !sr.uintField("factor", &plan.slowLink.factor)) {
      return std::nullopt;
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* loss = r.objectField("loss")) {
    if (!onlyKnownKeys(*loss,
                       {"loss_num", "loss_den", "burst_period", "burst_len",
                        "active_until", "one_way_from", "one_way_start",
                        "one_way_width", "one_way_period"},
                       "loss", error)) {
      return std::nullopt;
    }
    Reader lr(*loss, error);
    if (!lr.u32Field("loss_num", &plan.loss.lossNum, /*required=*/false) ||
        !lr.u32Field("loss_den", &plan.loss.lossDen, /*required=*/false) ||
        !lr.uintField("burst_period", &plan.loss.burstPeriod,
                      /*required=*/false) ||
        !lr.uintField("burst_len", &plan.loss.burstLen, /*required=*/false) ||
        !lr.uintField("active_until", &plan.loss.activeUntil,
                      /*required=*/false) ||
        !lr.processField("one_way_from", &plan.loss.oneWayFrom,
                         /*required=*/false) ||
        !lr.uintField("one_way_start", &plan.loss.oneWayStart,
                      /*required=*/false) ||
        !lr.uintField("one_way_width", &plan.loss.oneWayWidth,
                      /*required=*/false) ||
        !lr.uintField("one_way_period", &plan.loss.oneWayPeriod,
                      /*required=*/false)) {
      return std::nullopt;
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }

  if (const Json* workload = r.objectField("workload")) {
    if (!onlyKnownKeys(*workload,
                       {"start", "interval", "per_process", "causal_chain",
                        "cross_deps", "writers"},
                       "workload", error)) {
      return std::nullopt;
    }
    Reader wr(*workload, error);
    std::uint64_t per = 0;
    std::uint64_t writers = 0;
    if (!wr.uintField("start", &plan.workload.start) ||
        !wr.uintField("interval", &plan.workload.interval) ||
        !wr.uintField("per_process", &per) ||
        !wr.boolField("causal_chain", &plan.workload.causalChain) ||
        !wr.boolField("cross_deps", &plan.workload.crossDeps) ||
        !wr.uintField("writers", &writers, /*required=*/false)) {
      return std::nullopt;
    }
    plan.workload.perProcess = static_cast<std::size_t>(per);
    plan.workload.writers = static_cast<std::size_t>(writers);
  } else {
    if (error != nullptr && !error->empty()) return std::nullopt;
    r.fail("workload", "missing");
    return std::nullopt;
  }

  if (!r.uintField("ec_instances", &plan.ecInstances, /*required=*/false)) {
    return std::nullopt;
  }
  if (!r.uintField("max_time", &plan.maxTime)) return std::nullopt;

  const std::vector<std::string> violations = planAdmissibilityViolations(plan);
  if (!violations.empty()) {
    if (error != nullptr) *error = "inadmissible plan: " + violations.front();
    return std::nullopt;
  }
  return plan;
}

Json encodeCorpusEntry(const CorpusEntry& entry) {
  Json j = Json::object();
  j.set("schema", Json::str(kFuzzPlanSchema));
  j.set("name", Json::str(entry.name));
  if (!entry.foundBy.empty()) j.set("found_by", Json::str(entry.foundBy));
  j.set("oracle", Json::str(entry.oracle));
  j.set("plan", encodeFuzzPlan(entry.plan));

  Json expect = Json::object();
  expect.set("pass", Json::boolean(entry.expect.pass));
  Json keys = Json::array();
  for (const std::string& k : entry.expect.failureKeys) keys.push(Json::str(k));
  expect.set("failure_keys", std::move(keys));
  if (!entry.expect.digests.empty()) {
    Json digests = Json::object();
    for (const auto& [tag, digest] : entry.expect.digests) {
      digests.set(tag, Json::str(hex64(digest)));
    }
    expect.set("digests", std::move(digests));
  }
  j.set("expect", std::move(expect));
  return j;
}

std::optional<CorpusEntry> decodeCorpusEntry(const Json& j, std::string* error) {
  std::string localError;
  if (error == nullptr) error = &localError;  // see decodeFuzzPlan
  error->clear();
  if (j.kind() != Json::Kind::kObject) {
    *error = "corpus entry is not a JSON object";
    return std::nullopt;
  }
  // A bare plan (top-level "stack" field) is accepted as a pass=true
  // entry, so `wfd_explore --replay` works on hand-written plans too.
  if (j.find("plan") == nullptr && j.find("stack") != nullptr) {
    std::optional<FuzzPlan> plan = decodeFuzzPlan(j, error);
    if (!plan) return std::nullopt;
    CorpusEntry entry;
    entry.name = "<bare plan>";
    entry.plan = std::move(*plan);
    entry.expect.pass = true;
    return entry;
  }

  if (!onlyKnownKeys(j, {"schema", "name", "found_by", "oracle", "plan",
                         "expect"},
                     "corpus entry", error)) {
    return std::nullopt;
  }
  Reader r(j, error);
  CorpusEntry entry;
  if (!r.stringField("name", &entry.name)) return std::nullopt;
  if (!r.stringField("found_by", &entry.foundBy, /*required=*/false)) {
    return std::nullopt;
  }
  if (!r.stringField("oracle", &entry.oracle, /*required=*/false)) {
    return std::nullopt;
  }
  if (entry.oracle != "spec" && entry.oracle != "strict-tob") {
    r.fail("oracle", "must be 'spec' or 'strict-tob'");
    return std::nullopt;
  }
  const Json* planJson = r.objectField("plan");
  if (planJson == nullptr) {
    if (error != nullptr && error->empty()) *error = "field 'plan': missing";
    return std::nullopt;
  }
  std::optional<FuzzPlan> plan = decodeFuzzPlan(*planJson, error);
  if (!plan) return std::nullopt;
  entry.plan = std::move(*plan);

  const Json* expect = r.objectField("expect");
  if (expect == nullptr) {
    if (error != nullptr && error->empty()) *error = "field 'expect': missing";
    return std::nullopt;
  }
  if (!onlyKnownKeys(*expect, {"pass", "failure_keys", "digests"}, "expect",
                     error)) {
    return std::nullopt;
  }
  Reader er(*expect, error);
  if (!er.boolField("pass", &entry.expect.pass)) return std::nullopt;
  if (const Json* keys = er.arrayField("failure_keys")) {
    for (const Json& k : keys->items()) {
      if (k.kind() != Json::Kind::kString) {
        er.fail("failure_keys", "non-string key");
        return std::nullopt;
      }
      entry.expect.failureKeys.push_back(k.asString());
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }
  if (const Json* digests = er.objectField("digests")) {
    for (const auto& [tag, value] : digests->fields()) {
      if (value.kind() != Json::Kind::kString) {
        er.fail("digests", "digest is not a hex string");
        return std::nullopt;
      }
      std::uint64_t digest = 0;
      if (!parseHex64(value.asString(), &digest)) {
        er.fail("digests", "digest is not 16 hex chars");
        return std::nullopt;
      }
      entry.expect.digests.emplace_back(tag, digest);
    }
  } else if (error != nullptr && !error->empty()) {
    return std::nullopt;
  }
  return entry;
}

std::optional<CorpusEntry> loadCorpusFile(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parseError;
  std::optional<Json> j = Json::parse(buf.str(), &parseError);
  if (!j) {
    if (error != nullptr) *error = path + ": " + parseError;
    return std::nullopt;
  }
  std::string decodeError;
  std::optional<CorpusEntry> entry = decodeCorpusEntry(*j, &decodeError);
  if (!entry && error != nullptr) *error = path + ": " + decodeError;
  return entry;
}

bool saveCorpusFile(const std::string& path, const CorpusEntry& entry) {
  std::ofstream out(path);
  if (!out) return false;
  out << encodeCorpusEntry(entry).dump() << "\n";
  return static_cast<bool>(out);
}

std::optional<std::vector<std::string>> listCorpusFiles(const std::string& dir,
                                                        std::string* error) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    return std::nullopt;
  }
  std::vector<std::string> files;
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().extension() != ".json") continue;
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace wfd
