/**
 * @file
 * Reference digests of every operation's summary_fingerprint() at the
 * default seed, recorded with `perfbench --record`.  The paper table
 * serves paper-macro and paper-tick alike: the macro-stepped and
 * per-tick engines are byte-identical by design.  The fuzz workload
 * has no table; its operations fail on harness violations.
 */

#include "bench.hh"

namespace perfbench {

std::map<std::string, std::string>
reference_for(const std::string& workload, std::uint64_t seed)
{
    if (seed != kDefaultSeed)
        return {};
    if (workload == "paper-macro" || workload == "paper-tick") {
        return {
            {"l1/PPM/uncapped", "a3e236de86014ee7"},
            {"l1/HPM/uncapped", "99b1e81148d0dcf6"},
            {"l1/HL/uncapped", "f887ec8aafe6740f"},
            {"l1/PPM/tdp4", "08443aae003da0be"},
            {"l1/HPM/tdp4", "99b1e81148d0dcf6"},
            {"l1/HL/tdp4", "97e8f8f866cd0f39"},
            {"l2/PPM/uncapped", "cb5cdf3d1d94d92d"},
            {"l2/HPM/uncapped", "744c58795318e48c"},
            {"l2/HL/uncapped", "c5b333249c8b0d6e"},
            {"l2/PPM/tdp4", "cb5cdf3d1d94d92d"},
            {"l2/HPM/tdp4", "744c58795318e48c"},
            {"l2/HL/tdp4", "46153547cc7c86dd"},
            {"l3/PPM/uncapped", "7adebc43645f2829"},
            {"l3/HPM/uncapped", "a12d1cb87c464138"},
            {"l3/HL/uncapped", "ed080b2bf3f4f138"},
            {"l3/PPM/tdp4", "7adebc43645f2829"},
            {"l3/HPM/tdp4", "a12d1cb87c464138"},
            {"l3/HL/tdp4", "525b33bedbc52ecb"},
            {"m1/PPM/uncapped", "8be69f7b62647700"},
            {"m1/HPM/uncapped", "f12fdebd7b61a639"},
            {"m1/HL/uncapped", "56902ca3b2de2eca"},
            {"m1/PPM/tdp4", "63afb96e93196483"},
            {"m1/HPM/tdp4", "f12fdebd7b61a639"},
            {"m1/HL/tdp4", "f02e503cce543594"},
            {"m2/PPM/uncapped", "379b837696fde7c4"},
            {"m2/HPM/uncapped", "740127b90aea5580"},
            {"m2/HL/uncapped", "a6bb9fac2b35e650"},
            {"m2/PPM/tdp4", "33944d0c43d8551d"},
            {"m2/HPM/tdp4", "97fa71472b5fd0a0"},
            {"m2/HL/tdp4", "89f55c64b3a87013"},
            {"m3/PPM/uncapped", "c955d9490c3f7cc8"},
            {"m3/HPM/uncapped", "f554feff95c11e43"},
            {"m3/HL/uncapped", "a3c9c3d086432193"},
            {"m3/PPM/tdp4", "003908a59659d481"},
            {"m3/HPM/tdp4", "0d8f50a0f559e079"},
            {"m3/HL/tdp4", "cf60192a3fa62a3f"},
            {"h1/PPM/uncapped", "8e3a55021da1684c"},
            {"h1/HPM/uncapped", "df28bcb91f3532ff"},
            {"h1/HL/uncapped", "30ca1ce311af756a"},
            {"h1/PPM/tdp4", "bdc4aa7fdedab3cf"},
            {"h1/HPM/tdp4", "c7e8ef38392aad04"},
            {"h1/HL/tdp4", "0307bca83f758134"},
            {"h2/PPM/uncapped", "107a2171190bd87b"},
            {"h2/HPM/uncapped", "ee2c37c1f9e02312"},
            {"h2/HL/uncapped", "0ff5095dcfea4cc5"},
            {"h2/PPM/tdp4", "ed55db764cbac7e3"},
            {"h2/HPM/tdp4", "fdd682a1f8aa2ce3"},
            {"h2/HL/tdp4", "60a3f1777dcd2ee3"},
            {"h3/PPM/uncapped", "1aee04a7605fd8ea"},
            {"h3/HPM/uncapped", "e5495221db2b1221"},
            {"h3/HL/uncapped", "f5b08a0afc749f1f"},
            {"h3/PPM/tdp4", "bfa4021c0388bfee"},
            {"h3/HPM/tdp4", "a19c2430ee96391c"},
            {"h3/HL/tdp4", "de025a7bcbcd980e"},
        };
    }
    if (workload == "fleet")
        return {{"fleet", "7a7ee459bca08769"}};
    return {};
}

} // namespace perfbench
