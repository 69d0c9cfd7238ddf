#include "src/harness/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <algorithm>

namespace sdsm::harness {

namespace {

[[noreturn]] void usage_exit(const char* flag, std::string_view got,
                             const char* expected) {
  std::fprintf(stderr, "unknown %s value '%.*s' (expected %s)\n", flag,
               static_cast<int>(got.size()), got.data(), expected);
  std::exit(2);
}

/// Splits "--flag=value" / "--flag value" for one known flag; advances `i`
/// past a detached value.  Returns nullopt when argv[i] is not `flag`.
std::optional<std::string_view> take_value(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const std::string_view arg(argv[i]);
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    return arg.substr(flag.size() + 1);
  }
  if (arg == flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%.*s needs a value\n",
                   static_cast<int>(flag.size()), flag.data());
      std::exit(2);
    }
    return std::string_view(argv[++i]);
  }
  return std::nullopt;
}

}  // namespace

Options Options::parse(int argc, char** argv,
                       std::initializer_list<std::string_view> switches,
                       const api::RunKnobs& defaults) {
  Options o;
  o.knobs = defaults;
  std::vector<api::Backend> picked;
  bool transport_given = false;
  for (int i = 1; i < argc; ++i) {
    if (const auto v = take_value(argc, argv, i, "--transport")) {
      if (const auto kind = net::parse_transport(*v)) {
        o.knobs.transport = *kind;
        transport_given = true;
      } else {
        usage_exit("--transport", *v, "inproc|socket");
      }
    } else if (const auto v = take_value(argc, argv, i, "--backend")) {
      std::string_view rest = *v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view one = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        if (const auto b = api::parse_backend(one)) {
          picked.push_back(*b);
        } else {
          usage_exit("--backend", one, "chaos|tmk-base|tmk-optimized|hybrid");
        }
      }
    } else if (const auto v = take_value(argc, argv, i, "--schedule")) {
      if (const auto s = api::parse_round_schedule(*v)) {
        o.knobs.round_schedule = *s;
      } else {
        usage_exit("--schedule", *v, "serial|tournament");
      }
    } else if (const auto v = take_value(argc, argv, i, "--mode")) {
      if (const auto m = api::parse_deploy_mode(*v)) {
        o.mode = *m;
      } else {
        usage_exit("--mode", *v, "threads|processes");
      }
    } else if (const auto v = take_value(argc, argv, i, "--coherence")) {
      if (const auto c = coherence::parse_coherence_policy(*v)) {
        o.knobs.coherence = *c;
      } else {
        usage_exit("--coherence", *v, "static|adaptive");
      }
    } else if (const auto v = take_value(argc, argv, i, "--exec")) {
      if (const auto e = api::parse_exec_engine(*v)) {
        o.knobs.exec_engine = *e;
      } else {
        usage_exit("--exec", *v, "rows|bucketed");
      }
    } else {
      o.extras_.emplace_back(argv[i]);
    }
  }
  // Every extra must be one of the binary's own switches or the detached
  // value of one: an unknown flag (a typo, or a flag that was retired) is
  // an error, never silently ignored.
  for (std::size_t i = 0; i < o.extras_.size(); ++i) {
    const std::string_view arg = o.extras_[i];
    if (!arg.starts_with("--")) {
      if (i > 0 && o.extras_[i - 1].starts_with("--") &&
          o.extras_[i - 1].find('=') == std::string::npos) {
        continue;  // the value of the (known) switch before it
      }
    } else if (std::find(switches.begin(), switches.end(),
                         arg.substr(2, arg.find('=') - 2)) != switches.end()) {
      continue;
    }
    std::fprintf(stderr, "unknown argument '%.*s'\n",
                 static_cast<int>(arg.size()), arg.data());
    std::exit(2);
  }
  // Worker processes always talk over their TCP mesh, the socket fabric.
  if (o.mode == DeployMode::kProcesses) {
    if (transport_given &&
        o.knobs.transport != net::TransportKind::kSocket) {
      reject("--transport", net::transport_name(o.knobs.transport),
             "--mode=processes runs over the workers' TCP mesh");
    }
    o.knobs.transport = net::TransportKind::kSocket;
  }
  // Sweep order (and dedup) always follows kAllBackends, so tables keep a
  // stable row order no matter how the flags were spelled.  Hybrid is not
  // part of the default sweep (kAllBackends is the paper's three-way), so
  // it joins the list only when asked for, ordered last.
  for (const api::Backend b : api::kAllBackends) {
    if (picked.empty() || std::find(picked.begin(), picked.end(), b) !=
                              picked.end()) {
      o.backends.push_back(b);
    }
  }
  if (std::find(picked.begin(), picked.end(), api::Backend::kHybrid) !=
      picked.end()) {
    o.backends.push_back(api::Backend::kHybrid);
  }
  return o;
}

void Options::reject(const char* flag, std::string_view value,
                     const char* why) {
  std::fprintf(stderr, "unsupported %s value '%.*s' (%s)\n", flag,
               static_cast<int>(value.size()), value.data(), why);
  std::exit(2);
}

void Options::threads_only(const char* why) const {
  if (mode == DeployMode::kProcesses) reject("--mode", "processes", why);
}

bool Options::flag(std::string_view name) const {
  for (const std::string& e : extras_) {
    const std::string_view arg(e);
    if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      const std::string_view body = arg.substr(2);
      if (body == name) return true;
      if (body.size() > name.size() && body.substr(0, name.size()) == name &&
          body[name.size()] == '=') {
        return true;
      }
    }
  }
  return false;
}

std::optional<std::string> Options::value(std::string_view name) const {
  for (std::size_t i = 0; i < extras_.size(); ++i) {
    const std::string_view arg(extras_[i]);
    if (arg.size() < 2 || arg.substr(0, 2) != "--") continue;
    const std::string_view body = arg.substr(2);
    if (body.size() > name.size() && body.substr(0, name.size()) == name &&
        body[name.size()] == '=') {
      return std::string(body.substr(name.size() + 1));
    }
    if (body == name && i + 1 < extras_.size() &&
        extras_[i + 1].rfind("--", 0) != 0) {
      return extras_[i + 1];
    }
  }
  return std::nullopt;
}

}  // namespace sdsm::harness
