#include "workload/sets.hh"

#include "common/logging.hh"

namespace ppm::workload {

const char*
intensity_class_name(IntensityClass c)
{
    switch (c) {
      case IntensityClass::kLight:
        return "light";
      case IntensityClass::kMedium:
        return "medium";
      case IntensityClass::kHeavy:
        return "heavy";
    }
    return "?";
}

namespace {

std::vector<WorkloadSet>
build_sets()
{
    using B = Benchmark;
    using I = Input;
    using C = IntensityClass;
    auto m = [](B b, I i) { return SetMember{b, i}; };
    std::vector<WorkloadSet> sets;
    // Each Table 6 set contains six tasks (two rows of three).
    sets.push_back({"l1", C::kLight,
                    {m(B::kTexture, I::kVga), m(B::kTracking, I::kVga),
                     m(B::kH264, I::kSoccer), m(B::kSwaptions, I::kLarge),
                     m(B::kX264, I::kLarge),
                     m(B::kBlackscholes, I::kLarge)}});
    sets.push_back({"l2", C::kLight,
                    {m(B::kTexture, I::kVga), m(B::kMulticnt, I::kVga),
                     m(B::kH264, I::kBluesky), m(B::kSwaptions, I::kLarge),
                     m(B::kBodytrack, I::kLarge),
                     m(B::kBlackscholes, I::kLarge)}});
    sets.push_back({"l3", C::kLight,
                    {m(B::kTracking, I::kVga), m(B::kMulticnt, I::kVga),
                     m(B::kH264, I::kSoccer), m(B::kX264, I::kLarge),
                     m(B::kBodytrack, I::kLarge),
                     m(B::kBlackscholes, I::kLarge)}});
    sets.push_back({"m1", C::kMedium,
                    {m(B::kSwaptions, I::kLarge), m(B::kBodytrack, I::kLarge),
                     m(B::kBlackscholes, I::kLarge), m(B::kTexture, I::kVga),
                     m(B::kTracking, I::kVga), m(B::kH264, I::kBluesky)}});
    sets.push_back({"m2", C::kMedium,
                    {m(B::kTexture, I::kVga), m(B::kTracking, I::kVga),
                     m(B::kH264, I::kSoccer), m(B::kSwaptions, I::kNative),
                     m(B::kBodytrack, I::kNative),
                     m(B::kX264, I::kNative)}});
    sets.push_back({"m3", C::kMedium,
                    {m(B::kTracking, I::kVga), m(B::kMulticnt, I::kVga),
                     m(B::kBlackscholes, I::kNative),
                     m(B::kBodytrack, I::kNative),
                     m(B::kTexture, I::kFullhd),
                     m(B::kH264, I::kForeman)}});
    sets.push_back({"h1", C::kHeavy,
                    {m(B::kH264, I::kForeman), m(B::kX264, I::kNative),
                     m(B::kBlackscholes, I::kNative),
                     m(B::kTexture, I::kFullhd),
                     m(B::kSwaptions, I::kNative),
                     m(B::kMulticnt, I::kFullhd)}});
    sets.push_back({"h2", C::kHeavy,
                    {m(B::kBlackscholes, I::kNative), m(B::kX264, I::kNative),
                     m(B::kTracking, I::kFullhd),
                     m(B::kBodytrack, I::kNative),
                     m(B::kTexture, I::kFullhd), m(B::kH264, I::kSoccer)}});
    sets.push_back({"h3", C::kHeavy,
                    {m(B::kH264, I::kBluesky), m(B::kH264, I::kForeman),
                     m(B::kX264, I::kNative), m(B::kSwaptions, I::kNative),
                     m(B::kBodytrack, I::kNative),
                     m(B::kTracking, I::kFullhd)}});
    return sets;
}

} // namespace

const std::vector<WorkloadSet>&
standard_workload_sets()
{
    static const std::vector<WorkloadSet> kSets = build_sets();
    return kSets;
}

const WorkloadSet&
workload_set(const std::string& name)
{
    for (const auto& s : standard_workload_sets()) {
        if (s.name == name)
            return s;
    }
    fatal("unknown workload set '%s'", name.c_str());
}

double
intensity(const WorkloadSet& set, Pu little_max_supply)
{
    PPM_ASSERT(little_max_supply > 0.0, "max supply must be positive");
    Pu total = 0.0;
    for (const SetMember& member : set.members)
        total += profile(member.bench, member.input).avg_demand_little;
    return (total - little_max_supply) / little_max_supply;
}

IntensityClass
classify_intensity(double intensity_value)
{
    if (intensity_value <= 0.0)
        return IntensityClass::kLight;
    if (intensity_value <= 0.30)
        return IntensityClass::kMedium;
    return IntensityClass::kHeavy;
}

std::vector<TaskSpec>
instantiate(const WorkloadSet& set, std::uint64_t base_seed, int priority,
            SimTime horizon)
{
    std::vector<TaskSpec> specs;
    specs.reserve(set.members.size());
    std::uint64_t seed = base_seed;
    for (const SetMember& member : set.members) {
        specs.push_back(make_task_spec(member.bench, member.input, priority,
                                       seed++, horizon));
    }
    return specs;
}

std::vector<double>
big_speedups(const WorkloadSet& set)
{
    std::vector<double> speedups;
    speedups.reserve(set.members.size());
    for (const SetMember& member : set.members)
        speedups.push_back(profile(member.bench, member.input).big_speedup);
    return speedups;
}

} // namespace ppm::workload
