/**
 * @file
 * Tests for the vepro::serve encode-farm simulator (ISSUE 7): arrival
 * process determinism and shape, the farm's EDF/admission contracts,
 * byte-identical SLA tables across orchestrator worker counts, and the
 * policy sanity pins — including the committed reference overload
 * scenario, where speed-adaptive preset switching must strictly beat
 * the slowest static preset on deadline misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backend/profile.hpp"
#include "lab/orchestrator.hpp"
#include "serve/cli.hpp"
#include "serve/costmodel.hpp"
#include "serve/farm.hpp"
#include "serve/fleet.hpp"
#include "serve/policy.hpp"
#include "serve/scenario.hpp"
#include "serve/traffic.hpp"
#include "trace/parallel.hpp"

namespace vepro::serve
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vepro_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Cost oracle over plain functions of (backend, clip, crf, preset):
 *  isolates queue/policy logic from the encoder models. */
class FakeOracle final : public CostOracle
{
  public:
    using Fn = std::function<double(const std::string &,
                                    const std::string &, int, int)>;

    FakeOracle(std::vector<int> ladder, Fn seconds, Fn joules)
        : ladder_(std::move(ladder)), seconds_(std::move(seconds)),
          joules_(std::move(joules))
    {
    }

    double
    serviceSeconds(const std::string &backend, const std::string &clip,
                   int crf, int preset) const override
    {
        return seconds_(backend, clip, crf, preset);
    }

    double
    energyJoules(const std::string &backend, const std::string &clip,
                 int crf, int preset) const override
    {
        return joules_(backend, clip, crf, preset);
    }

    const std::vector<int> &presetLadder() const override { return ladder_; }

  private:
    std::vector<int> ladder_;
    Fn seconds_;
    Fn joules_;
};

/** Seconds per preset (ladder = the map's presets, ascending), the
 *  same on every backend, clip and CRF; no energy. */
FakeOracle
presetOracle(const std::map<int, double> &seconds)
{
    std::vector<int> ladder;
    for (const auto &[preset, sec] : seconds) {
        ladder.push_back(preset);
    }
    return FakeOracle(
        ladder,
        [seconds](const std::string &, const std::string &, int,
                  int preset) { return seconds.at(preset); },
        [](auto &&...) { return 0.0; });
}

/** Ladder {2, 8}: preset 2 takes 40 s and preset 8 takes 8 s, except
 *  on @p fast, which encodes 4x quicker. An encode burns 10 J on
 *  @p fast and 100 J anywhere else. */
FakeOracle
ironOracle(const std::string &fast)
{
    return FakeOracle(
        {2, 8},
        [fast](const std::string &backend, const std::string &, int,
               int preset) {
            const double base = preset == 2 ? 40.0 : 8.0;
            return backend == fast ? base / 4.0 : base;
        },
        [fast](const std::string &backend, const std::string &, int, int) {
            return backend == fast ? 10.0 : 100.0;
        });
}

/** @p count arrivals of one clip, @p gap seconds apart. */
std::vector<UploadJob>
steadyArrivals(size_t count, double gap)
{
    std::vector<UploadJob> jobs;
    for (size_t i = 0; i < count; ++i) {
        UploadJob j;
        j.id = i;
        j.arrivalSec = static_cast<double>(i) * gap;
        j.clip = "game1";
        j.crf = 32;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

// ---- Arrival process -------------------------------------------------

TEST(Traffic, DeterministicPerSeedAndSensitiveToIt)
{
    TrafficConfig config;
    config.seed = 42;
    config.users = 500;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 600.0;

    const auto a = generateTraffic(config);
    const auto b = generateTraffic(config);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 20u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_DOUBLE_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_EQ(a[i].clip, b[i].clip);
        EXPECT_EQ(a[i].crf, b[i].crf);
        EXPECT_GE(a[i].arrivalSec, 0.0);
        EXPECT_LT(a[i].arrivalSec, config.durationSec);
        if (i > 0) {
            EXPECT_GE(a[i].arrivalSec, a[i - 1].arrivalSec);
        }
        EXPECT_NE(std::find(config.clips.begin(), config.clips.end(),
                            a[i].clip),
                  config.clips.end());
    }

    config.seed = 43;
    const auto c = generateTraffic(config);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].arrivalSec != c[i].arrivalSec;
    }
    EXPECT_TRUE(differs) << "different seeds must give different traffic";
}

TEST(Traffic, RateScalesWithUsersAndFollowsTheDiurnalShape)
{
    TrafficConfig config;
    config.seed = 9;
    config.users = 2000;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 1200.0;
    config.diurnalAmplitude = 0.0;
    const size_t big = generateTraffic(config).size();
    config.users = 500;
    const size_t small = generateTraffic(config).size();
    EXPECT_GT(big, small * 2) << "4x the users must raise the rate";

    // One full sine period across the window: the first half (sin > 0)
    // must out-arrive the second half (sin < 0).
    config.users = 2000;
    config.diurnalAmplitude = 0.9;
    config.diurnalPeriodSec = config.durationSec;
    const auto arrivals = generateTraffic(config);
    size_t first_half = 0;
    for (const UploadJob &j : arrivals) {
        if (j.arrivalSec < config.durationSec / 2) {
            ++first_half;
        }
    }
    EXPECT_GT(first_half, (arrivals.size() - first_half) * 2);
}

// ---- ABR rung mix ----------------------------------------------------

TEST(Traffic, InactiveRungMixKeepsTheByteExactPreLadderStream)
{
    // Byte-determinism contract: a rung mix that never leaves scale 1
    // consumes ZERO extra RNG draws, so the whole arrival stream —
    // clocks, clips, CRFs — replays exactly as before the field
    // existed. Pre-ladder scenario goldens must not move.
    TrafficConfig base;
    base.seed = 42;
    base.users = 500;
    base.durationSec = 600.0;
    const auto before = generateTraffic(base);

    TrafficConfig explicit_mix = base;
    explicit_mix.rungMix = {{1, 1.0}};
    TrafficConfig split_mix = base;
    split_mix.rungMix = {{1, 0.3}, {1, 0.7}};
    for (const auto &jobs : {generateTraffic(explicit_mix),
                             generateTraffic(split_mix)}) {
        ASSERT_EQ(jobs.size(), before.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_DOUBLE_EQ(jobs[i].arrivalSec, before[i].arrivalSec);
            EXPECT_EQ(jobs[i].clip, before[i].clip);
            EXPECT_EQ(jobs[i].crf, before[i].crf);
            EXPECT_EQ(jobs[i].clip.find('@'), std::string::npos);
        }
    }
}

TEST(Traffic, ActiveRungMixTagsUploadsAtTheRequestedShares)
{
    TrafficConfig config;
    config.seed = 7;
    config.users = 4000;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 1800.0;
    config.rungMix = {{1, 20.0}, {2, 20.0}, {4, 60.0}};
    const auto jobs = generateTraffic(config);
    ASSERT_GT(jobs.size(), 400u);

    std::map<int, size_t> by_scale;
    for (const UploadJob &job : jobs) {
        const RungId rung = parseRungId(job.clip);
        by_scale[rung.scale]++;
        // The base clip stays a real suite clip and the CRF a real CRF.
        EXPECT_NE(std::find(config.clips.begin(), config.clips.end(),
                            rung.clip),
                  config.clips.end());
    }
    ASSERT_EQ(by_scale.size(), 3u);
    const double n = static_cast<double>(jobs.size());
    EXPECT_NEAR(by_scale[1] / n, 0.2, 0.05);
    EXPECT_NEAR(by_scale[2] / n, 0.2, 0.05);
    EXPECT_NEAR(by_scale[4] / n, 0.6, 0.05);

    // Deterministic per seed, like every other traffic draw.
    const auto again = generateTraffic(config);
    ASSERT_EQ(again.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again[i].clip, jobs[i].clip);
    }
}

TEST(Traffic, RungIdsRoundTripAndRejectGarbage)
{
    EXPECT_EQ(rungClipId("cat", 1), "cat");
    EXPECT_EQ(rungClipId("cat", 4), "cat@4");

    const RungId plain = parseRungId("cat");
    EXPECT_EQ(plain.clip, "cat");
    EXPECT_EQ(plain.scale, 1);
    const RungId tagged = parseRungId("desktop@2");
    EXPECT_EQ(tagged.clip, "desktop");
    EXPECT_EQ(tagged.scale, 2);

    for (const char *bad : {"cat@", "cat@x", "cat@0", "cat@-2", "cat@2x"}) {
        EXPECT_THROW(parseRungId(bad), std::invalid_argument) << bad;
    }

    // The combo universe cost resolution must cover: clips x distinct
    // mix scales, in clip-major order; inactive mixes pass through.
    TrafficConfig config;
    config.clips = {"a", "b"};
    config.rungMix = {{1, 1.0}, {4, 2.0}, {4, 1.0}};
    const std::vector<std::string> ids = rungClipIds(config);
    ASSERT_EQ(ids.size(), 4u);
    EXPECT_EQ(ids[0], "a");
    EXPECT_EQ(ids[1], "a@4");
    EXPECT_EQ(ids[2], "b");
    EXPECT_EQ(ids[3], "b@4");
    config.rungMix = {{1, 1.0}};
    EXPECT_EQ(rungClipIds(config), config.clips);
}

TEST(Traffic, RejectsDegenerateRungMixes)
{
    TrafficConfig config;
    config.rungMix.clear();
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{0, 1.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{2, 0.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{2, -1.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
}

// ---- Farm queue contracts --------------------------------------------

TEST(Farm, UniformTargetDispatchesInArrivalOrder)
{
    // EDF with a uniform latency target dispatches in deadline ==
    // arrival order. (Replay determinism is pinned by FarmGolden.)
    const auto arrivals = steadyArrivals(40, 0.25);
    const FakeOracle oracle = presetOracle({{4, 3.0}});
    FarmConfig config;
    config.latencyTargetSec = 10.0;
    const FarmResult r =
        simulateFarm(arrivals, config, StaticPolicy(4), oracle, {{"", 2}});
    ASSERT_EQ(r.outcomes.size(), arrivals.size());
    for (size_t i = 1; i < r.outcomes.size(); ++i) {
        EXPECT_LT(r.outcomes[i - 1].id, r.outcomes[i].id);
    }
}

TEST(Farm, EmptyPoolIsRejected)
{
    const auto arrivals = steadyArrivals(3, 1.0);
    const FakeOracle oracle = presetOracle({{4, 5.0}});
    const FarmConfig config;
    EXPECT_THROW(simulateFarm(arrivals, config, StaticPolicy(4), oracle, {}),
                 std::invalid_argument);
    EXPECT_THROW(simulateFarm(arrivals, config, StaticPolicy(4), oracle,
                              {{"", 0}}),
                 std::invalid_argument);
}

TEST(Farm, AdmissionControlRejectsWhenTheQueueIsFull)
{
    // One server stuck on 100 s jobs; arrivals flood in every second.
    const auto arrivals = steadyArrivals(12, 1.0);
    const FakeOracle oracle = presetOracle({{4, 100.0}});
    const StaticPolicy policy(4);
    FarmConfig config;
    config.admissionLimit = 3;
    config.latencyTargetSec = 50.0;

    const FarmResult r =
        simulateFarm(arrivals, config, policy, oracle, {{"", 1}});
    EXPECT_EQ(r.sla.offered, 12u);
    EXPECT_EQ(r.sla.completed + r.sla.rejected, 12u);
    EXPECT_GT(r.sla.rejected, 0u);
    size_t rejected = 0;
    for (const JobOutcome &o : r.outcomes) {
        rejected += o.rejected ? 1 : 0;
    }
    EXPECT_EQ(rejected, r.sla.rejected);
}

// ---- Farm golden -----------------------------------------------------

/** Golden-farm service seconds: depend on every argument, with
 *  non-round values, so a change in float evaluation order shows. */
double
goldenSeconds(const std::string &backend, const std::string &clip, int crf,
              int preset)
{
    const double base = 9.0 + 3.7 * static_cast<double>(10 - preset) +
                        0.013 * static_cast<double>(crf) +
                        1.1 * static_cast<double>(clip.size());
    return backend == "iron-b" ? base * 0.61 : base;
}

double
goldenJoules(const std::string &backend, const std::string &clip, int crf,
             int preset)
{
    return goldenSeconds(backend, clip, crf, preset) *
               (backend == "iron-b" ? 37.5 : 81.25) +
           0.3 * static_cast<double>(crf);
}

/** FNV-1a over every JobOutcome field, the SlaReport, energy and
 *  horizon, in declaration order; doubles by bit pattern. */
uint64_t
farmDigest(const FarmResult &r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto bytes = [&h](const void *data, size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h = (h ^ p[i]) * 0x100000001b3ULL;
        }
    };
    const auto u64 = [&](uint64_t v) { bytes(&v, sizeof v); };
    const auto f64 = [&](double v) { bytes(&v, sizeof v); };
    const auto str = [&](const std::string &s) {
        u64(s.size());
        bytes(s.data(), s.size());
    };
    u64(r.outcomes.size());
    for (const JobOutcome &o : r.outcomes) {
        u64(o.id);
        f64(o.arrivalSec);
        u64(o.rejected ? 1 : 0);
        u64(static_cast<uint64_t>(o.preset));
        f64(o.startSec);
        f64(o.endSec);
        u64(o.missedDeadline ? 1 : 0);
        str(o.backend);
    }
    const SlaReport &s = r.sla;
    str(s.policy);
    u64(s.offered);
    u64(s.completed);
    u64(s.rejected);
    f64(s.p50QueueSec);
    f64(s.p99QueueSec);
    f64(s.throughputPerMin);
    f64(s.deadlineMissRate);
    u64(s.deadlineMisses);
    u64(s.presetSwitches);
    f64(s.meanServiceSec);
    f64(r.energyJoules);
    f64(r.horizonSec);
    return h;
}

TEST(FarmGolden, OutcomeDigestsArePinned)
{
    // Seeded overload traffic through static and adaptive policies, a
    // one-group and a two-group pool, with and without admission
    // control. Every field of every outcome is pinned, so a change to
    // the event loop that moves any dispatch shows here.
    TrafficConfig traffic;
    traffic.seed = 11;
    traffic.users = 1000;
    traffic.uploadsPerUserPerHour = 0.5;
    traffic.durationSec = 900.0;
    traffic.diurnalPeriodSec = 1800.0;
    const auto arrivals = generateTraffic(traffic);
    ASSERT_GT(arrivals.size(), 50u);

    const FakeOracle oracle({2, 4, 6, 8}, goldenSeconds, goldenJoules);
    const StaticPolicy slow(2), fast(8);
    const AdaptivePolicy adaptive;
    const std::vector<ServerGroup> one = {{"iron-a", 3}};
    const std::vector<ServerGroup> two = {{"iron-a", 2}, {"iron-b", 2}};
    struct Case {
        const Policy *policy;
        const std::vector<ServerGroup> *pool;
        size_t admission;
        uint64_t want;
    };
    const Case cases[] = {
        {&slow, &one, 0, 3113808615148836853ULL},
        {&slow, &one, 6, 17405502289231699097ULL},
        {&fast, &one, 0, 3105514989522492180ULL},
        {&fast, &one, 6, 2803549310796740087ULL},
        {&adaptive, &one, 0, 15640273908548866976ULL},
        {&adaptive, &one, 6, 2621070681882911415ULL},
        {&slow, &two, 0, 1399064765417019986ULL},
        {&slow, &two, 6, 8610532682051255907ULL},
        {&fast, &two, 0, 6140077781720086614ULL},
        {&fast, &two, 6, 6140077781720086614ULL},
        {&adaptive, &two, 0, 1196480842417801575ULL},
        {&adaptive, &two, 6, 13934314348649813817ULL},
    };
    size_t rejected = 0, misses = 0, switches = 0, on_b = 0;
    for (const Case &c : cases) {
        FarmConfig config;
        config.latencyTargetSec = 120.0;
        config.admissionLimit = c.admission;
        const FarmResult r =
            simulateFarm(arrivals, config, *c.policy, oracle, *c.pool);
        EXPECT_EQ(farmDigest(r), c.want)
            << c.policy->name() << " on " << c.pool->size()
            << " group(s), admission " << c.admission;
        rejected += r.sla.rejected;
        misses += r.sla.deadlineMisses;
        switches += r.sla.presetSwitches;
        for (const JobOutcome &o : r.outcomes) {
            on_b += o.backend == "iron-b" ? 1 : 0;
        }
    }
    // The cases reach every branch the digests are meant to cover.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(switches, 0u);
    EXPECT_GT(on_b, 0u);
}

// ---- Policies --------------------------------------------------------

TEST(Policy, AdaptivePicksTheSlowestRungThatStillFits)
{
    const FakeOracle oracle =
        presetOracle({{2, 10.0}, {4, 5.0}, {6, 2.0}, {8, 1.0}});
    const AdaptivePolicy policy;
    UploadJob job;
    job.clip = "game1";
    job.crf = 32;

    EXPECT_EQ(policy.choosePreset(job, 0.0, 20.0, "", oracle), 2);
    EXPECT_EQ(policy.choosePreset(job, 0.0, 6.0, "", oracle), 4);
    EXPECT_EQ(policy.choosePreset(job, 0.0, 1.5, "", oracle), 8);
    // Nothing fits: take the fastest anyway.
    EXPECT_EQ(policy.choosePreset(job, 0.0, -3.0, "", oracle), 8);
}

TEST(Policy, AdaptiveStrictlyBeatsSlowestStaticUnderOverload)
{
    // 1 server, arrivals every 2 s: 5x overload at the slow rung,
    // half-capacity at the fast one.
    const auto arrivals = steadyArrivals(100, 2.0);
    const FakeOracle oracle =
        presetOracle({{2, 10.0}, {4, 6.0}, {6, 3.0}, {8, 1.0}});
    FarmConfig config;
    config.latencyTargetSec = 12.0;

    const FarmResult slow = simulateFarm(arrivals, config, StaticPolicy(2),
                                         oracle, {{"", 1}});
    const FarmResult adaptive = simulateFarm(
        arrivals, config, AdaptivePolicy(), oracle, {{"", 1}});

    EXPECT_GT(slow.sla.deadlineMisses, arrivals.size() / 2);
    EXPECT_LT(adaptive.sla.deadlineMisses, slow.sla.deadlineMisses);
    EXPECT_GT(adaptive.sla.presetSwitches, 0u);
    // Quality is shed only under pressure: the adaptive mean service
    // stays above always-fastest.
    EXPECT_GT(adaptive.sla.meanServiceSec, 1.0);
}

// ---- Scenario runs through the orchestrator --------------------------

/** Deterministic fake runner: spec-derived numbers, no real encodes. */
lab::JobResult
fakeRun(const lab::JobSpec &spec)
{
    lab::JobResult r;
    r.encode.instructions =
        1'000'000ull * static_cast<uint64_t>(10 - spec.preset) +
        static_cast<uint64_t>(spec.crf) * 1000ull +
        static_cast<uint64_t>(spec.video.size());
    r.core.instructions = r.encode.instructions;
    r.core.cycles = r.encode.instructions / 2;  // IPC 2.0.
    return r;
}

TEST(Scenario, SlaTableIsByteIdenticalAcrossOrchestratorJobs)
{
    ServeScenario scenario = referenceScenario(true);
    scenario.traffic.durationSec = 400.0;

    std::string first;
    for (int jobs : {1, 4}) {
        lab::OrchestratorOptions opts;
        opts.jobs = jobs;
        opts.storeDir = freshDir("jobs" + std::to_string(jobs));
        opts.verbose = false;
        opts.runner = fakeRun;
        lab::Orchestrator orch(opts);
        const ScenarioRun run = runScenario(scenario, orch);
        const std::string json = run.table.toJson();
        ASSERT_FALSE(json.empty());
        if (first.empty()) {
            first = json;
        } else {
            EXPECT_EQ(first, json)
                << "--jobs must never change the SLA table";
        }
    }
}

TEST(Scenario, ReferenceOverloadPinAdaptiveBeatsSlowestStatic)
{
    // The committed acceptance pin, on the REAL encoder models: in the
    // quick reference overload scenario, speed-adaptive preset
    // switching strictly reduces deadline misses vs the slowest static
    // preset. Uses the real cost pipeline end-to-end (tiny specs).
    ServeScenario scenario = referenceScenario(true);
    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = freshDir("reference");
    opts.verbose = false;
    lab::Orchestrator orch(opts);

    const ScenarioRun run = runScenario(scenario, orch);
    ASSERT_EQ(run.reports.size(), scenario.cost.presets.size() + 1);
    const SlaReport &slowest = run.reports.front();
    const SlaReport &adaptive = run.reports.back();
    ASSERT_EQ(adaptive.policy, "adaptive");
    EXPECT_GT(slowest.deadlineMisses, slowest.completed / 2)
        << "reference scenario must overload the slow static baseline";
    EXPECT_LT(adaptive.deadlineMisses, slowest.deadlineMisses)
        << "adaptive must strictly beat the slowest static preset";
    EXPECT_GT(adaptive.presetSwitches, 0u);
}

TEST(Scenario, CostModelScalesWithPresetAndCachesThroughTheStore)
{
    // Preset 8 must be modelled faster than preset 2, and a second
    // orchestrator over the same store must resolve fully from cache.
    const std::string dir = freshDir("costcache");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;

    double slow = 0.0, fast = 0.0;
    {
        lab::Orchestrator orch(opts);
        CostModel cost(orch, config);
        cost.resolve({"xeon-bdw"}, {"game1"}, {32});
        slow = cost.serviceSeconds("xeon-bdw", "game1", 32, 2);
        fast = cost.serviceSeconds("xeon-bdw", "game1", 32, 8);
        EXPECT_GT(slow, fast);
        EXPECT_GE(cost.speedup(2), 1.0);
        EXPECT_EQ(orch.cacheHits(), 0u);
    }
    {
        lab::Orchestrator orch(opts);
        CostModel cost(orch, config);
        cost.resolve({"xeon-bdw"}, {"game1"}, {32});
        EXPECT_EQ(orch.cacheHits(), 2u);
        EXPECT_EQ(orch.computed(), 0u);
        EXPECT_DOUBLE_EQ(cost.serviceSeconds("xeon-bdw", "game1", 32, 2),
                         slow);
        EXPECT_DOUBLE_EQ(cost.serviceSeconds("xeon-bdw", "game1", 32, 8),
                         fast);
    }
}

// ---- CLI parsing -----------------------------------------------------

TEST(ServeCli, IntegerFlagsRejectTrailingJunk)
{
    // std::stoi would silently read "4abc" as 4; parseIntStrict must
    // turn each of these into a parse error instead.
    for (const char *flag : {"--users", "--servers", "--jobs"}) {
        const ServeCli cli = parseServeCli({flag, "4abc"});
        EXPECT_FALSE(cli.error.empty()) << flag;
        EXPECT_NE(cli.error.find(flag), std::string::npos) << cli.error;
    }
    // A farm needs a server, and a negative user count would silently
    // generate no traffic.
    for (const auto &[flag, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"--servers", "0"}, {"--servers", "-2"}, {"--users", "-5"}}) {
        const ServeCli cli = parseServeCli({flag, value, "--quick"});
        EXPECT_NE(cli.error.find(flag), std::string::npos)
            << flag << " " << value << ": " << cli.error;
    }
    EXPECT_TRUE(parseServeCli({"--servers=1", "--users=0"}).error.empty());
    const ServeCli ok =
        parseServeCli({"--users", "250", "--servers", "2", "--jobs", "4"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.scenario.traffic.users, 250);
    EXPECT_EQ(ok.scenario.farm.servers, 2);
    EXPECT_EQ(ok.jobs, 4);
}

TEST(ServeCli, RealAndSeedFlagsRejectJunk)
{
    // std::stod would read "600abc" as 600 and "90s" as 90, and
    // std::stoull would wrap "-1" to 2^64 - 1; each must be an error.
    for (const char *flag :
         {"--uploads-per-hour", "--duration", "--latency-target", "--ghz"}) {
        for (const char *bad :
             {"600abc", "90s", "", " 5", "5 ", "inf", "nan", "1e999"}) {
            const ServeCli cli = parseServeCli({flag, bad, "--quick"});
            EXPECT_FALSE(cli.error.empty())
                << flag << " '" << bad << "' was accepted";
            EXPECT_NE(cli.error.find(flag), std::string::npos) << cli.error;
        }
    }
    for (const char *bad :
         {"-1", "12x", "", "1.5", "+3", "18446744073709551616"}) {
        const ServeCli cli = parseServeCli({"--seed", bad});
        EXPECT_FALSE(cli.error.empty()) << "--seed '" << bad << "'";
        EXPECT_NE(cli.error.find("--seed"), std::string::npos) << cli.error;
    }
    // Well-formed values that make no sense are refused too.
    for (const auto &[flag, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"--duration", "0"},
             {"--duration", "-600"},
             {"--latency-target", "-1"},
             {"--uploads-per-hour", "-0.5"}}) {
        EXPECT_FALSE(parseServeCli({flag, value}).error.empty())
            << flag << " " << value;
    }

    const ServeCli ok = parseServeCli(
        {"--seed=18446744073709551615", "--duration=600.5",
         "--latency-target", "90", "--uploads-per-hour", "1e-1",
         "--ghz=2.5", "--quick"});
    ASSERT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.scenario.traffic.seed, 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(ok.scenario.traffic.durationSec, 600.5);
    EXPECT_DOUBLE_EQ(ok.scenario.farm.latencyTargetSec, 90.0);
    EXPECT_DOUBLE_EQ(ok.scenario.traffic.uploadsPerUserPerHour, 0.1);
    EXPECT_DOUBLE_EQ(ok.scenario.cost.nominalGhz, 2.5);
}

TEST(ServeCli, JobsZeroAutoDetectsAndNegativeIsAnError)
{
    // Same meaning as vepro-lab's --jobs: 0 = one worker per hardware
    // thread, negative counts are rejected rather than run as 1.
    const ServeCli automatic = parseServeCli({"--jobs=0"});
    ASSERT_TRUE(automatic.error.empty()) << automatic.error;
    EXPECT_EQ(automatic.jobs, trace::resolveJobs(0));
    EXPECT_GE(automatic.jobs, 1);

    for (const char *bad : {"-3", "-1"}) {
        const ServeCli cli = parseServeCli({"--jobs", bad, "--quick"});
        EXPECT_FALSE(cli.error.empty()) << bad << " was accepted";
        EXPECT_NE(cli.error.find("--jobs"), std::string::npos) << cli.error;
    }
    EXPECT_EQ(parseServeCli({"--jobs=3"}).jobs, 3);
    EXPECT_EQ(parseServeCli({}).jobs, 1);
}

TEST(ServeCli, BackendFlagsValidateAndOverride)
{
    const ServeCli cli = parseServeCli(
        {"--quick", "--backend", "graviton-like", "--ghz", "2.0",
         "--server-cores", "16"});
    ASSERT_TRUE(cli.error.empty()) << cli.error;
    EXPECT_TRUE(cli.quick);
    EXPECT_EQ(cli.scenario.cost.backend, "graviton-like");
    EXPECT_DOUBLE_EQ(cli.scenario.cost.nominalGhz, 2.0);
    EXPECT_EQ(cli.scenario.cost.serverCores, 16);

    EXPECT_FALSE(parseServeCli({"--backend", "vax-11"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--ghz", "0"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--users"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--warp-speed"}).error.empty());
    // --backends without --fleet is a contradiction, not a silent no-op.
    EXPECT_FALSE(
        parseServeCli({"--backends", "xeon-bdw,hw-enc"}).error.empty());

    const ServeCli fleet = parseServeCli(
        {"--fleet", "--backends", "xeon-bdw,hw-enc", "--quick"});
    ASSERT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_TRUE(fleet.fleet);
    ASSERT_EQ(fleet.fleetBackends.size(), 2u);
    EXPECT_EQ(fleet.fleetBackends[0], "xeon-bdw");
    EXPECT_EQ(fleet.fleetBackends[1], "hw-enc");
}

TEST(ServeCli, FleetNeedsAServerPerBackend)
{
    // A blend with fewer servers than backends would leave some out.
    const size_t all = backend::profileNames().size();
    ASSERT_GE(all, 2u);
    const std::string short_by_one = "--servers=" + std::to_string(all - 1);
    const ServeCli few = parseServeCli({"--fleet", "--quick", short_by_one});
    EXPECT_NE(few.error.find("--servers"), std::string::npos) << few.error;

    const std::string exact = "--servers=" + std::to_string(all);
    EXPECT_TRUE(parseServeCli({"--fleet", "--quick", exact}).error.empty());
    // --backends sets the count; without --fleet there is no blend.
    EXPECT_TRUE(parseServeCli({"--fleet", "--backends=xeon-bdw,hw-enc",
                               "--servers=2"})
                    .error.empty());
    EXPECT_FALSE(parseServeCli({"--fleet", "--backends=xeon-bdw,hw-enc",
                                "--servers=1"})
                     .error.empty());
    EXPECT_TRUE(parseServeCli({"--servers=1"}).error.empty());
}

TEST(ServeCli, RungMixFlagParsesAndValidates)
{
    const ServeCli cli =
        parseServeCli({"--quick", "--rung-mix", "1:20,2:20,4:60"});
    ASSERT_TRUE(cli.error.empty()) << cli.error;
    const auto &mix = cli.scenario.traffic.rungMix;
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_EQ(mix[0].scale, 1);
    EXPECT_DOUBLE_EQ(mix[0].weight, 20.0);
    EXPECT_EQ(mix[1].scale, 2);
    EXPECT_DOUBLE_EQ(mix[1].weight, 20.0);
    EXPECT_EQ(mix[2].scale, 4);
    EXPECT_DOUBLE_EQ(mix[2].weight, 60.0);

    for (const char *bad :
         {"2", "2:", ":5", "0:5", "2:0", "2:-1", "2:x", "1:20;2:80", ""}) {
        const ServeCli broken = parseServeCli({"--rung-mix", bad, "--quick"});
        EXPECT_FALSE(broken.error.empty()) << "'" << bad << "' was accepted";
    }
    EXPECT_FALSE(parseServeCli({"--rung-mix"}).error.empty());
}

TEST(ServeCli, FlagOrderDoesNotMatterAroundQuick)
{
    // --quick resets the scenario; explicit flags must survive it
    // regardless of their position on the command line.
    const ServeCli before = parseServeCli({"--users", "77", "--quick"});
    const ServeCli after = parseServeCli({"--quick", "--users", "77"});
    ASSERT_TRUE(before.error.empty());
    ASSERT_TRUE(after.error.empty());
    EXPECT_EQ(before.scenario.traffic.users, 77);
    EXPECT_EQ(after.scenario.traffic.users, 77);
    EXPECT_DOUBLE_EQ(before.scenario.traffic.durationSec,
                     after.scenario.traffic.durationSec);
}

// ---- Heterogeneous pools and the fleet sweep -------------------------

TEST(FleetFarm, JobsLandOnBothBackendsAndEnergyAccumulates)
{
    const auto arrivals = steadyArrivals(40, 1.0);
    const FakeOracle oracle = ironOracle("fast-iron");
    const StaticPolicy policy(8);
    FarmConfig config;
    config.latencyTargetSec = 60.0;

    const std::vector<ServerGroup> pool = {{"slow-iron", 1},
                                           {"fast-iron", 1}};
    const FarmResult r = simulateFarm(arrivals, config, policy, oracle, pool);
    EXPECT_EQ(r.sla.completed, 40u);

    size_t on_slow = 0, on_fast = 0;
    double joules = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        ASSERT_FALSE(o.backend.empty());
        on_slow += o.backend == "slow-iron" ? 1 : 0;
        on_fast += o.backend == "fast-iron" ? 1 : 0;
        joules += o.backend == "fast-iron" ? 10.0 : 100.0;
    }
    EXPECT_GT(on_slow, 0u);
    EXPECT_GT(on_fast, 0u);
    // The 4x faster server should clear most of the queue.
    EXPECT_GT(on_fast, on_slow);
    EXPECT_DOUBLE_EQ(r.energyJoules, joules);
    EXPECT_GT(r.horizonSec, 0.0);

}

TEST(FleetFarm, AdaptivePolicySeesThePerServerCosts)
{
    // Deadline 10 s: the slow backend only fits preset 8 (8 s) while
    // the fast one fits preset 2 (10 s). An adaptive policy consulted
    // through the per-server view must pick per backend.
    const auto arrivals = steadyArrivals(8, 100.0);  // No queueing.
    const FakeOracle oracle = ironOracle("fast-iron");
    const AdaptivePolicy policy;
    FarmConfig config;
    config.latencyTargetSec = 10.0;

    const FarmResult r = simulateFarm(
        arrivals, config, policy, oracle,
        {{"slow-iron", 1}, {"fast-iron", 1}});
    for (const JobOutcome &o : r.outcomes) {
        if (o.backend == "fast-iron") {
            EXPECT_EQ(o.preset, 2) << "fast iron fits the slow rung";
        } else {
            EXPECT_EQ(o.preset, 8) << "slow iron must shed quality";
        }
    }
}

TEST(FleetSweep, RanksMixesAndFlagsTheRegimeFlip)
{
    // Overload at the slow rung (40 s service vs 10 s spacing on 2
    // servers) — only all-fast-iron meets the SLA there. At the fast
    // rung everything keeps up, and cheaper wins. The fast fake iron is
    // named after a registry profile, because the sweep prices servers
    // through backend::resolveProfile.
    const auto arrivals = steadyArrivals(60, 10.0);
    const FakeOracle oracle = ironOracle("graviton-like");
    FarmConfig farm;
    farm.servers = 2;
    farm.latencyTargetSec = 45.0;

    FleetConfig config;
    config.backends = {"xeon-bdw", "graviton-like"};
    config.missBudget = 0.05;

    const FleetSweepResult sweep = fleetSweep(arrivals, farm, oracle, config);
    // 2 homogeneous mixes + 1 blend, 2 regimes each.
    ASSERT_EQ(sweep.mixes.size(), 3u);
    ASSERT_EQ(sweep.rows.size(), 6u);
    EXPECT_EQ(sweep.table.rowCount(), 6u);

    for (const FleetRow &row : sweep.rows) {
        EXPECT_EQ(row.completed, 60u);
        EXPECT_GT(row.dollarsPer1k, 0.0);
        EXPECT_GT(row.joulesPerEncode, 0.0);
    }
    // Slow regime: only the all-graviton mix (the fast fake iron)
    // meets the budget; fast regime: every mix does, and graviton is
    // both cheaper per hour and first in price order among survivors.
    EXPECT_EQ(sweep.cheapestSlow, "graviton-like");
    EXPECT_EQ(sweep.cheapestFast, "graviton-like");
    EXPECT_FALSE(sweep.winnerChanged);
    EXPECT_NE(sweep.verdict.find("holds"), std::string::npos);

    // Byte-identical replay (the CI fleet-smoke contract in miniature).
    const FleetSweepResult again = fleetSweep(arrivals, farm, oracle, config);
    EXPECT_EQ(again.table.toJson(), sweep.table.toJson());
    EXPECT_EQ(again.verdict, sweep.verdict);
}

// ---- CostModel across backends ---------------------------------------

TEST(CostModel, ResolvesPerBackendAndPricesFixedFunctionAnalytically)
{
    const std::string dir = freshDir("fleetcost");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;

    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);
    cost.resolve({"xeon-bdw", "graviton-like", "hw-enc"}, {"game1"},
                 {32});

    // The default primary is xeon-bdw, and "" names it too.
    EXPECT_EQ(cost.primaryBackend(), "xeon-bdw");
    EXPECT_DOUBLE_EQ(cost.serviceSeconds("", "game1", 32, 2),
                     cost.serviceSeconds("xeon-bdw", "game1", 32, 2));

    // The Arm profile has a different clock, so the same measured
    // instruction stream maps to different seconds.
    EXPECT_NE(cost.serviceSeconds("xeon-bdw", "game1", 32, 2),
              cost.serviceSeconds("graviton-like", "game1", 32, 2));

    // hw-enc: preset-independent, resolved with zero encode jobs, and
    // matching the analytic block pricing exactly.
    EXPECT_DOUBLE_EQ(cost.serviceSeconds("hw-enc", "game1", 32, 2),
                     cost.serviceSeconds("hw-enc", "game1", 32, 8));
    const backend::MachineProfile &hw = backend::profile("hw-enc");
    const video::SuiteEntry &entry = video::suiteEntry("game1");
    const uint64_t blocks =
        static_cast<uint64_t>((entry.nominalWidth + 15) / 16) *
        static_cast<uint64_t>((entry.nominalHeight + 15) / 16) *
        static_cast<uint64_t>(config.referenceFrames);
    EXPECT_DOUBLE_EQ(cost.serviceSeconds("hw-enc", "game1", 32, 2),
                     backend::fixedServiceSeconds(hw, blocks));
    EXPECT_DOUBLE_EQ(cost.energyJoules("hw-enc", "game1", 32, 2),
                     backend::fixedEnergyJoules(hw, blocks));

    // Energy is resolved for every core backend and positive.
    EXPECT_GT(cost.energyJoules("xeon-bdw", "game1", 32, 2), 0.0);
    EXPECT_GT(cost.energyJoules("graviton-like", "game1", 32, 8), 0.0);

    // Unresolved combos still throw.
    EXPECT_THROW(cost.serviceSeconds("xeon-bdw", "house", 32, 2),
                 std::out_of_range);

    // Only the two core backends requested specs: 2 backends x 2
    // presets, nothing for hw-enc.
    EXPECT_EQ(orch.computed(), 4u);
}

TEST(CostModel, FleetResolutionCapturesEachTraceExactlyOnce)
{
    // On a cold store, resolve() across two core backends must run
    // the instrumented encoder exactly once per (clip, crf, preset) —
    // the trace cache is keyed by the encode-side spec only, so the
    // second backend replays the first backend's captures. Uses the
    // real encode pipeline (no runner seam): the whole point is the
    // seam-level encoder-invocation count.
    const std::string dir = freshDir("fleettrace");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;

    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);
    cost.resolve({"xeon-bdw", "graviton-like"}, {"game1"}, {32});

    // 1 clip x 1 crf x 2 presets = 2 unique encodes; 2 backends x 2
    // presets = 4 computed specs, the extra 2 resolved by replay.
    EXPECT_EQ(orch.computed(), 4u);
    EXPECT_EQ(orch.encoderRuns(), 2u);
    EXPECT_EQ(orch.traceCaptures(), 2u);
    EXPECT_EQ(orch.traceReplays(), 2u);

    // Both backends priced every preset from the same capture.
    EXPECT_GT(cost.serviceSeconds("xeon-bdw", "game1", 32, 2), 0.0);
    EXPECT_GT(cost.serviceSeconds("graviton-like", "game1", 32, 8), 0.0);
}

TEST(CostModel, ExplicitOverridesSupersedeTheProfile)
{
    const std::string dir = freshDir("ghzoverride");
    lab::OrchestratorOptions opts;
    opts.jobs = 1;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;
    lab::Orchestrator orch(opts);

    CostModelConfig plain;
    plain.presets = {8};
    CostModelConfig halved = plain;
    halved.nominalGhz = 1.5;  // Half the xeon profile's 3.0 GHz.

    CostModel a(orch, plain);
    a.resolve({"xeon-bdw"}, {"game1"}, {32});
    CostModel b(orch, halved);
    b.resolve({"xeon-bdw"}, {"game1"}, {32});

    // Same measured spec (same cache entry), half the clock: exactly
    // twice the seconds. b's request dedupes to the handle a's run()
    // already resolved, so the spec is computed once.
    EXPECT_DOUBLE_EQ(b.serviceSeconds("xeon-bdw", "game1", 32, 8),
                     2.0 * a.serviceSeconds("xeon-bdw", "game1", 32, 8));
    EXPECT_EQ(orch.computed(), 1u);
}

TEST(CostModel, RungCombosClampTheProxyButKeepTheBaseClip)
{
    const std::string dir = freshDir("rungspec");
    CostModelConfig config;  // divisor 16: the coarse serve geometry
    lab::OrchestratorOptions opts;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;
    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);

    // Full-resolution combos pass through untouched.
    EXPECT_EQ(cost.specFor("game1", 32, 4).video, "game1");
    EXPECT_EQ(cost.specFor("game1", 32, 4).scale, 1);

    // The 1080p proxy (128x64 luma) can hold the /4 rung directly.
    const lab::JobSpec deep = cost.specFor("game1@4", 32, 4);
    EXPECT_EQ(deep.video, "game1");
    EXPECT_EQ(deep.scale, 4);

    // The 720p proxy (80x48 luma) cannot: /4 would be 20x12, under the
    // 16x16 codec floor, so the measurement falls back to the deepest
    // encodable rung (/2). Block pricing still uses the true rung
    // resolution — only the measured proxy clamps.
    const lab::JobSpec clamped = cost.specFor("desktop@4", 32, 4);
    EXPECT_EQ(clamped.video, "desktop");
    EXPECT_EQ(clamped.scale, 2);
}

TEST(Scenario, FleetTableIsByteIdenticalAcrossOrchestratorJobs)
{
    ServeScenario scenario = referenceScenario(true);
    scenario.traffic.durationSec = 400.0;

    std::string first;
    for (int jobs : {1, 4}) {
        lab::OrchestratorOptions opts;
        opts.jobs = jobs;
        opts.storeDir = freshDir("fleetjobs" + std::to_string(jobs));
        opts.verbose = false;
        opts.runner = fakeRun;
        lab::Orchestrator orch(opts);
        FleetConfig config;  // Full registry.
        const FleetRun run = runFleetScenario(scenario, orch, config);
        EXPECT_EQ(run.sweep.mixes.size(),
                  backend::profileNames().size() + 1);
        const std::string json = run.sweep.table.toJson();
        ASSERT_FALSE(json.empty());
        if (first.empty()) {
            first = json;
        } else {
            EXPECT_EQ(first, json)
                << "--jobs must never change the fleet table";
        }
    }
}

} // namespace
} // namespace vepro::serve
