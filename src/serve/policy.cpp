#include "serve/policy.hpp"

#include <stdexcept>

namespace vepro::serve
{

StaticPolicy::StaticPolicy(int preset) : preset_(preset) {}

std::string
StaticPolicy::name() const
{
    return "static-p" + std::to_string(preset_);
}

int
StaticPolicy::choosePreset(const UploadJob &, double, double,
                           const std::string &, const CostOracle &) const
{
    return preset_;
}

std::string
AdaptivePolicy::name() const
{
    return "adaptive";
}

int
AdaptivePolicy::choosePreset(const UploadJob &job, double now,
                             double deadline, const std::string &backend,
                             const CostOracle &cost) const
{
    const std::vector<int> &ladder = cost.presetLadder();
    if (ladder.empty()) {
        throw std::logic_error("serve: empty preset ladder");
    }
    const double slack = deadline - now;
    // Slowest (best-quality) rung whose predicted completion still
    // makes the deadline; when even the fastest rung cannot, take the
    // fastest anyway — it minimises how late the job lands.
    for (int preset : ladder) {
        if (cost.serviceSeconds(backend, job.clip, job.crf, preset) <=
            slack) {
            return preset;
        }
    }
    return ladder.back();
}

} // namespace vepro::serve
