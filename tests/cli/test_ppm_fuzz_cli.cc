/**
 * @file
 * Black-box CLI validation of the ppm_fuzz binary: the exit-code
 * contract (0 = clean sweep / clean replay, 1 = violations, 2 = CLI
 * error), strict numeric parsing, and fixture replay.  The binary
 * path and the checked-in fixture directory are injected by CMake as
 * PPM_FUZZ_BIN and PPM_FUZZ_FIXTURE_DIR.
 */

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#ifndef PPM_FUZZ_BIN
#error "PPM_FUZZ_BIN must point at the ppm_fuzz binary"
#endif
#ifndef PPM_FUZZ_FIXTURE_DIR
#error "PPM_FUZZ_FIXTURE_DIR must point at tests/fuzz/fixtures"
#endif

namespace {

/** Run ppm_fuzz with `args`, discarding output; returns exit code. */
int
run_cli(const std::string& args)
{
    const std::string cmd = std::string(PPM_FUZZ_BIN) + " " + args +
                            " > /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Path of one checked-in fixture (any .scenario file). */
std::string
some_fixture()
{
    for (const auto& entry :
         std::filesystem::directory_iterator(PPM_FUZZ_FIXTURE_DIR)) {
        if (entry.path().extension() == ".scenario")
            return entry.path().string();
    }
    return {};
}

TEST(PpmFuzzCli, TinyCleanSweepExitsZero)
{
    EXPECT_EQ(run_cli("--count 3 --seed 42"), 0);
}

TEST(PpmFuzzCli, PrintScenarioExitsZero)
{
    EXPECT_EQ(run_cli("--print-scenario 0 --seed 1"), 0);
}

TEST(PpmFuzzCli, UnknownFlagIsRejected)
{
    EXPECT_EQ(run_cli("--count 3 --frobnicate"), 2);
    // Shrinking is the default; only --no-shrink changes it.
    EXPECT_EQ(run_cli("--count 3 --shrink"), 2);
}

TEST(PpmFuzzCli, NumericParsingIsStrict)
{
    EXPECT_EQ(run_cli("--count 0"), 2);
    EXPECT_EQ(run_cli("--count -5"), 2);
    EXPECT_EQ(run_cli("--count 10x"), 2);
    EXPECT_EQ(run_cli("--count ''"), 2);
    EXPECT_EQ(run_cli("--seed -1"), 2);
    EXPECT_EQ(run_cli("--seed ' -1'"), 2);
    EXPECT_EQ(run_cli("--seed abc"), 2);
    EXPECT_EQ(run_cli("--seed 99999999999999999999999"), 2);
    EXPECT_EQ(run_cli("--jobs -1"), 2);
    // Past INT_MAX: refused while parsing, never narrowed to 2.
    EXPECT_EQ(run_cli("--count 3 --jobs 4294967298"), 2);
    EXPECT_EQ(run_cli("--max-violations 0"), 2);
    EXPECT_EQ(run_cli("--print-scenario -1"), 2);
}

TEST(PpmFuzzCli, MissingFlagValueIsRejected)
{
    EXPECT_EQ(run_cli("--count"), 2);
    EXPECT_EQ(run_cli("--replay"), 2);
}

TEST(PpmFuzzCli, ReplayOfMissingFileIsRejected)
{
    EXPECT_EQ(run_cli("--replay /nonexistent-dir/nope.scenario"), 2);
}

TEST(PpmFuzzCli, ReplayOfCheckedInFixtureIsClean)
{
    const std::string fixture = some_fixture();
    ASSERT_FALSE(fixture.empty())
        << "no .scenario fixture under " << PPM_FUZZ_FIXTURE_DIR;
    EXPECT_EQ(run_cli("--replay " + fixture), 0);
}

} // namespace
