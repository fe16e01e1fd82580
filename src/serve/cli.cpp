#include "serve/cli.hpp"

#include <exception>
#include <sstream>

#include "backend/profile.hpp"
#include "core/experiment.hpp"
#include "trace/parallel.hpp"

namespace vepro::serve
{

namespace
{

/** ','-split with empty fields dropped. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

/** Parse "scale:weight,scale:weight,..." into a rung mix. */
std::vector<TrafficConfig::RungShare>
parseRungMix(const std::string &text)
{
    std::vector<TrafficConfig::RungShare> mix;
    for (const std::string &item : splitList(text)) {
        const size_t colon = item.find(':');
        if (colon == std::string::npos || colon + 1 >= item.size()) {
            throw std::invalid_argument(
                "--rung-mix expects scale:weight pairs, got '" + item + "'");
        }
        TrafficConfig::RungShare share;
        share.scale =
            core::parseIntStrict(item.substr(0, colon), "--rung-mix scale");
        share.weight = core::parseDoubleStrict(item.substr(colon + 1),
                                               "--rung-mix weight");
        if (share.scale < 1) {
            throw std::invalid_argument("--rung-mix scales must be >= 1");
        }
        if (!(share.weight > 0.0)) {
            throw std::invalid_argument("--rung-mix weights must be > 0");
        }
        mix.push_back(share);
    }
    if (mix.empty()) {
        throw std::invalid_argument(
            "--rung-mix needs at least one scale:weight pair");
    }
    return mix;
}

std::string
knownProfiles()
{
    std::string names;
    for (const std::string &name : backend::profileNames()) {
        names += names.empty() ? name : ", " + name;
    }
    return names;
}

} // namespace

std::string
serveUsage()
{
    return "usage: vepro-serve [options]\n"
           "\n"
           "Encode-farm simulator: seeded upload traffic, one EDF queue,\n"
           "static vs speed-adaptive preset policies, SLA table — and\n"
           "with --fleet, $/encode-at-SLA across machine-profile mixes.\n"
           "\n"
           "  --quick                CI-sized reference overload scenario\n"
           "  --seed N               traffic RNG seed\n"
           "  --users N              active uploaders\n"
           "  --uploads-per-hour X   mean uploads per user per hour\n"
           "  --duration SEC         simulated window length\n"
           "  --servers N            farm servers (fleet: servers per mix)\n"
           "  --admission N          admission limit (queued jobs; 0 = off)\n"
           "  --latency-target SEC   SLA deadline per job\n"
           "  --rung-mix S:W,..      ABR rung mix as scale:weight pairs\n"
           "                         (e.g. 1:20,2:20,4:60 = 60% of jobs\n"
           "                         at 1/4 resolution); default all jobs\n"
           "                         run at full resolution\n"
           "  --backend NAME         machine profile servers run\n"
           "                         (" +
           knownProfiles() +
           ");\n"
           "                         sets the clock and core count from\n"
           "                         the profile\n"
           "  --ghz X                override the profile's clock\n"
           "  --server-cores N       override the profile's cores/server\n"
           "  --fleet                sweep backend mixes: $/1k-encodes,\n"
           "                         J/encode, miss rate per mix\n"
           "  --backends A,B,..      profiles the fleet sweep mixes\n"
           "                         (default: the full registry)\n"
           "  --jobs N               cost-resolution workers (default 1;\n"
           "                         0 = one per hardware thread)\n"
           "  --store DIR            result store directory (.vepro-lab)\n"
           "  --json PATH            write the SLA/fleet table as JSON\n"
           "  --markdown PATH        write the fleet table as markdown\n"
           "  --help                 this text\n";
}

ServeCli
parseServeCli(const std::vector<std::string> &args)
{
    ServeCli cli;
    cli.scenario = referenceScenario(false);

    // Flag overrides are applied AFTER the full pass, so "--backend x
    // --quick" and "--quick --backend x" mean the same run.
    bool saw_quick = false;
    std::vector<std::pair<std::string, std::string>> seen;

    for (size_t i = 0; i < args.size(); ++i) {
        // Both "--flag value" and "--flag=value" are accepted; the CI
        // smoke legs use the '=' form.
        std::string arg = args[i];
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        const auto value = [&]() -> std::string {
            if (has_inline) {
                return inline_value;
            }
            if (i + 1 >= args.size()) {
                cli.error = arg + " needs a value";
                return "";
            }
            return args[++i];
        };
        if (arg == "--help" || arg == "-h") {
            cli.showHelp = true;
            return cli;
        } else if (arg == "--quick" || arg == "--fleet") {
            if (has_inline) {
                cli.error = arg + " takes no value";
                return cli;
            }
            (arg == "--quick" ? saw_quick : cli.fleet) = true;
        } else if (arg == "--seed" || arg == "--users" ||
                   arg == "--uploads-per-hour" || arg == "--duration" ||
                   arg == "--servers" ||
                   arg == "--admission" || arg == "--latency-target" ||
                   arg == "--rung-mix" ||
                   arg == "--backend" || arg == "--ghz" ||
                   arg == "--server-cores" || arg == "--backends" ||
                   arg == "--jobs" || arg == "--store" ||
                   arg == "--json" || arg == "--markdown") {
            const std::string v = value();
            if (!cli.error.empty()) {
                return cli;
            }
            seen.emplace_back(arg, v);
        } else {
            cli.error = "unknown option " + arg;
            return cli;
        }
    }

    cli.quick = saw_quick;
    cli.scenario = referenceScenario(saw_quick);

    try {
        for (const auto &[flag, v] : seen) {
            if (flag == "--seed") {
                cli.scenario.traffic.seed = core::parseU64Strict(v, flag);
            } else if (flag == "--users") {
                const int users = core::parseIntStrict(v, flag);
                if (users < 0) {
                    throw std::invalid_argument("--users must be >= 0");
                }
                cli.scenario.traffic.users = users;
            } else if (flag == "--uploads-per-hour") {
                const double rate = core::parseDoubleStrict(v, flag);
                if (rate < 0.0) {
                    throw std::invalid_argument(
                        "--uploads-per-hour must be >= 0");
                }
                cli.scenario.traffic.uploadsPerUserPerHour = rate;
            } else if (flag == "--duration") {
                const double sec = core::parseDoubleStrict(v, flag);
                if (sec <= 0.0) {
                    throw std::invalid_argument("--duration must be > 0");
                }
                cli.scenario.traffic.durationSec = sec;
            } else if (flag == "--servers") {
                const int servers = core::parseIntStrict(v, flag);
                if (servers < 1) {
                    throw std::invalid_argument("--servers must be >= 1");
                }
                cli.scenario.farm.servers = servers;
            } else if (flag == "--admission") {
                const int limit = core::parseIntStrict(v, flag);
                if (limit < 0) {
                    throw std::invalid_argument(
                        "--admission must be >= 0");
                }
                cli.scenario.farm.admissionLimit =
                    static_cast<size_t>(limit);
            } else if (flag == "--latency-target") {
                const double sec = core::parseDoubleStrict(v, flag);
                if (sec <= 0.0) {
                    throw std::invalid_argument(
                        "--latency-target must be > 0");
                }
                cli.scenario.farm.latencyTargetSec = sec;
            } else if (flag == "--rung-mix") {
                cli.scenario.traffic.rungMix = parseRungMix(v);
            } else if (flag == "--backend") {
                if (!backend::isProfile(v)) {
                    throw std::invalid_argument(
                        "--backend: unknown profile '" + v +
                        "' (known: " + knownProfiles() + ")");
                }
                cli.scenario.cost.backend = v;
            } else if (flag == "--ghz") {
                const double ghz = core::parseDoubleStrict(v, flag);
                if (ghz <= 0.0) {
                    throw std::invalid_argument("--ghz must be > 0");
                }
                cli.scenario.cost.nominalGhz = ghz;
            } else if (flag == "--server-cores") {
                const int cores = core::parseIntStrict(v, flag);
                if (cores < 1) {
                    throw std::invalid_argument(
                        "--server-cores must be >= 1");
                }
                cli.scenario.cost.serverCores = cores;
            } else if (flag == "--backends") {
                cli.fleetBackends = splitList(v);
                if (cli.fleetBackends.empty()) {
                    throw std::invalid_argument(
                        "--backends needs at least one profile");
                }
                for (const std::string &name : cli.fleetBackends) {
                    if (!backend::isProfile(name)) {
                        throw std::invalid_argument(
                            "--backends: unknown profile '" + name +
                            "' (known: " + knownProfiles() + ")");
                    }
                }
            } else if (flag == "--jobs") {
                const int jobs = core::parseIntStrict(v, flag);
                if (jobs < 0) {
                    throw std::invalid_argument("--jobs must be >= 0");
                }
                cli.jobs = trace::resolveJobs(jobs);  // 0 = auto-detect
            } else if (flag == "--store") {
                cli.storeDir = v;
            } else if (flag == "--json") {
                cli.jsonPath = v;
            } else if (flag == "--markdown") {
                cli.markdownPath = v;
            }
        }
    } catch (const std::exception &err) {
        cli.error = err.what();
        return cli;
    }

    if (!cli.fleetBackends.empty() && !cli.fleet) {
        cli.error = "--backends only makes sense with --fleet";
    }
    // The fleet's blend deals its servers round-robin over the
    // backends; with fewer servers than backends it would silently
    // leave some out while still calling itself a blend.
    const size_t fleet_backends = cli.fleetBackends.empty()
                                      ? backend::profileNames().size()
                                      : cli.fleetBackends.size();
    if (cli.fleet && cli.error.empty() &&
        static_cast<size_t>(cli.scenario.farm.servers) < fleet_backends) {
        cli.error = "--fleet needs --servers >= the " +
                    std::to_string(fleet_backends) +
                    " fleet backends, got " +
                    std::to_string(cli.scenario.farm.servers);
    }
    return cli;
}

} // namespace vepro::serve
