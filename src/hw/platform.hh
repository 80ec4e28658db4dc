/**
 * @file
 * Topology model of a single-ISA performance-heterogeneous multi-core:
 * cores grouped into voltage-frequency clusters, each cluster running
 * all of its cores at one shared discrete V-F level (ARM big.LITTLE
 * style, cf. Section 2 of the paper).
 */

#ifndef PPM_HW_PLATFORM_HH
#define PPM_HW_PLATFORM_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "hw/vf_table.hh"

namespace ppm::hw {

/**
 * Micro-architecture class of a cluster's cores.  Workload profiles
 * key their per-core-type demand on this.
 */
enum class CoreClass {
    kLittle,  ///< Simple in-order core (Cortex-A7-like).
    kBig,     ///< Complex out-of-order core (Cortex-A15-like).
};

/** Human-readable name of a core class. */
const char* core_class_name(CoreClass c);

/** Power-model parameters of one core type (see PowerModel). */
struct CoreTypeParams {
    std::string name;              ///< e.g. "Cortex-A7".
    CoreClass core_class;          ///< Micro-architecture class.
    double ceff_nf;                ///< Effective switched capacitance (nF).
    Watts leak_per_core_max;       ///< Per-core leakage at maximum voltage.
    Watts uncore_power_max;        ///< Cluster-shared power at max voltage.
};

/** One physical core. */
struct Core {
    CoreId id = kInvalidId;        ///< Global core id.
    ClusterId cluster = kInvalidId;///< Owning cluster.
};

/** One voltage-frequency cluster of symmetric cores. */
class Cluster
{
  public:
    Cluster(ClusterId id, CoreTypeParams type, VfTable table,
            std::vector<CoreId> cores);

    ClusterId id() const { return id_; }
    const CoreTypeParams& type() const { return type_; }
    const VfTable& vf() const { return vf_; }
    const std::vector<CoreId>& cores() const { return cores_; }
    int num_cores() const { return static_cast<int>(cores_.size()); }

    /** Current discrete V-F level. */
    int level() const { return level_; }

    /** Set the V-F level (clamped into range). */
    void set_level(int level);

    /** Step the level by `delta` (clamped). @return true if changed. */
    bool step_level(int delta);

    /** Whether the cluster is powered (a gated cluster supplies 0 PU). */
    bool powered() const { return powered_; }

    /** Power the cluster up or down. */
    void set_powered(bool on) { powered_ = on; }

    /** Current frequency in MHz (0 when powered down). */
    double mhz() const { return powered_ ? vf_.mhz(level_) : 0.0; }

    /** Current voltage (0 when powered down). */
    double volts() const { return powered_ ? vf_.volts(level_) : 0.0; }

    /**
     * Supply of the cluster in PU.  Per the paper, the supply of a
     * cluster equals the supply of any one of its (symmetric) cores.
     */
    Pu supply() const { return mhz(); }

    /** Dynamic state only (level, gating); topology is rebuilt. */
    template <class A>
    void visit(A& a)
    {
        a(level_, powered_);
    }

  private:
    ClusterId id_;
    CoreTypeParams type_;
    VfTable vf_;
    std::vector<CoreId> cores_;
    int level_ = 0;
    bool powered_ = true;
};

/**
 * The chip: a set of clusters over a cache-coherent interconnect.
 * Owns the topology; dynamic state is limited to per-cluster V-F
 * levels and power gating.
 */
class Chip
{
  public:
    /** Specification of one cluster for the builder. */
    struct ClusterSpec {
        CoreTypeParams type;
        VfTable vf;
        int num_cores;
    };

    /** Build a chip from cluster specifications; cores get global ids. */
    explicit Chip(const std::vector<ClusterSpec>& specs);

    int num_clusters() const { return static_cast<int>(clusters_.size()); }
    int num_cores() const { return static_cast<int>(cores_.size()); }

    Cluster& cluster(ClusterId v);
    const Cluster& cluster(ClusterId v) const;

    const Core& core(CoreId c) const;

    /** Cluster owning core `c`. */
    ClusterId cluster_of(CoreId c) const { return core(c).cluster; }

    /** All clusters (const view). */
    const std::vector<Cluster>& clusters() const { return clusters_; }

    /**
     * Supply of core `c` in PU (== its cluster's supply); an offline
     * core supplies nothing.
     */
    Pu core_supply(CoreId c) const
    {
        return core_online(c) ? cluster(cluster_of(c)).supply() : 0.0;
    }

    /** Total chip supply: sum of cluster supplies (paper Section 2). */
    Pu total_supply() const;

    /**
     * Hot-plug state of core `c`.  All cores boot online; the fault
     * layer offlines cores for thermal-emergency style events.  An
     * offline core supplies no cycles but keeps its task assignments.
     */
    bool core_online(CoreId c) const
    {
        return core_online_[static_cast<std::size_t>(c)] != 0;
    }

    /** Set the hot-plug state of core `c`. */
    void set_core_online(CoreId c, bool on);

    /** Dynamic state only (per-cluster V-F, gating, hot-plug). */
    template <class A>
    void visit(A& a)
    {
        a.fixed(clusters_, "chip cluster count differs");
        a.fixed(core_online_, "chip core count differs");
    }

  private:
    std::vector<Cluster> clusters_;
    std::vector<Core> cores_;
    std::vector<char> core_online_;
};

/** Core-type parameters used by the default TC2-like platform. */
CoreTypeParams little_core_params();
CoreTypeParams big_core_params();

/**
 * The paper's evaluation platform: Versatile Express TC2-like chip
 * with one 3-core LITTLE cluster (cluster 0) and one 2-core big
 * cluster (cluster 1).  Power envelope calibrated to the paper's
 * reported maxima (~2 W LITTLE cluster, ~6 W big cluster, 8 W TDP).
 */
Chip tc2_chip();

/**
 * Generic homogeneous-topology builder for scalability studies
 * (Table 7): `num_clusters` clusters of `cores_per_cluster` cores.
 * Cluster i alternates between LITTLE-like and big-like types, with
 * max supplies spread across [350, 3000] PU as in the paper's setup.
 */
Chip synthetic_chip(int num_clusters, int cores_per_cluster);

/**
 * An Odroid-XU3-like octa-core big.LITTLE: 4 LITTLE + 4 big cores
 * (same core types and V-F tables as the TC2-like chip).  Useful for
 * what-if studies on a bigger mobile SoC.
 */
Chip octa_big_little_chip();

} // namespace ppm::hw

#endif // PPM_HW_PLATFORM_HH
