/**
 * @file
 * Black-box CLI validation of the ppm_run binary: malformed arguments
 * must produce a one-line error and a non-zero exit code, and a valid
 * invocation must exit zero.  The binary path is injected by CMake as
 * PPM_RUN_BIN.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef PPM_RUN_BIN
#error "PPM_RUN_BIN must point at the ppm_run binary"
#endif

namespace {

/** Run ppm_run with `args`, discarding output; returns the exit code. */
int
run_cli(const std::string& args)
{
    const std::string cmd = std::string(PPM_RUN_BIN) + " " + args +
                            " > /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Scratch path unique to this test process. */
std::string
tmp_path(const std::string& stem)
{
    return "/tmp/ppm_cli_" + std::to_string(getpid()) + "_" + stem;
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Run ppm_run capturing stdout and stderr; returns the exit code. */
int
run_cli_capture(const std::string& args, std::string* out,
                std::string* err)
{
    const std::string out_path = tmp_path("stdout");
    const std::string err_path = tmp_path("stderr");
    const std::string cmd = std::string(PPM_RUN_BIN) + " " + args +
                            " > " + out_path + " 2> " + err_path;
    const int status = std::system(cmd.c_str());
    if (out)
        *out = slurp(out_path);
    if (err)
        *err = slurp(err_path);
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(PpmRunCli, ValidTinyRunExitsZero)
{
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5"), 0);
}

TEST(PpmRunCli, UnknownFlagIsRejected)
{
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --frobnicate"), 2);
}

TEST(PpmRunCli, NegativeDurationIsRejected)
{
    EXPECT_EQ(run_cli("--set l1 --seconds -3"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 0"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds abc"), 2);
}

TEST(PpmRunCli, BadGovernorNameIsRejected)
{
    EXPECT_EQ(run_cli("--policy BOGUS --set l1 --seconds 1"), 2);
}

TEST(PpmRunCli, BadNumericFlagsAreRejected)
{
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp -1"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --seed -4"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --priority 0"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --avg-seeds 0"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --jobs -2"), 2);
}

TEST(PpmRunCli, JobsIsRejectedWhereItCanDoNothing)
{
    // A single run -- snapshot runs included -- clears its market
    // inline on one thread, so any --jobs value is an error there,
    // reported on one stderr line.
    std::string err;
    EXPECT_EQ(run_cli_capture("--set l1 --seconds 1 --jobs 4", nullptr,
                              &err),
              2);
    EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --jobs 1"), 2);
    const std::string snap = tmp_path("jobs.snap");
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --jobs 2 --snapshot-out " +
                      snap + " --snapshot-at 1000"),
              2);
    std::remove(snap.c_str());
    // Fleet and multi-seed runs have workers for it to size.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --avg-seeds 2 --jobs 2"), 0);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --fleet 2 --jobs 2"), 0);
}

TEST(PpmRunCli, NumericParsingIsStrict)
{
    // Trailing garbage after an otherwise valid number.
    EXPECT_EQ(run_cli("--set l1 --seconds 4x"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5w"), 2);
    // Out-of-range values must error, not clamp.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 "
                      "--seed 99999999999999999999999"),
              2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 1e999"), 2);
    // Non-finite values are valid strtod input but never valid knobs.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp inf"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp nan"), 2);
    // Empty value.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp ''"), 2);
}

TEST(PpmRunCli, MalformedFaultSpecIsRejected)
{
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --faults gamma_rays"), 2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --faults sensor,rate=-1"),
              2);
}

TEST(PpmRunCli, FaultedRunExitsZero)
{
    EXPECT_EQ(
        run_cli("--set l1 --seconds 1 --tdp 3.5 --faults all,seed=3"),
        0);
}

TEST(PpmRunCli, NoIncrementalFlagIsAccepted)
{
    EXPECT_EQ(
        run_cli("--set l1 --seconds 1 --tdp 3.5 --no-incremental"), 0);
}

TEST(PpmRunCli, NoIncrementalRejectsAnInlineValue)
{
    // Boolean flag: an attached value is a usage error.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --no-incremental=1"), 2);
}

TEST(PpmRunCli, UnwritableTracePathFailsBeforeSimulating)
{
    EXPECT_NE(run_cli("--set l1 --seconds 1 "
                      "--trace /nonexistent-dir/trace.csv"),
              0);
    EXPECT_NE(run_cli("--set l1 --seconds 1 "
                      "--trace-out /nonexistent-dir/trace.csv"),
              0);
}

// ----------------------------------------------------------------
// Snapshot flags.

TEST(PpmRunCli, SnapshotFlagPairingIsValidated)
{
    // Semantic conflicts go through fatal() -> exit 1 (malformed
    // individual flags stay exit 2, as elsewhere in this suite).
    // --snapshot-at/--snapshot-every without an output path.
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-at 500"), 1);
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-every 500"), 1);
    // An output path without a trigger.
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-out /tmp/x"), 1);
    // Mutually exclusive triggers.
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-out /tmp/x "
                      "--snapshot-at 500 --snapshot-every 500"),
              1);
    // Save point past the end of the run.
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-out /tmp/x "
                      "--snapshot-at 2000"),
              1);
    // Malformed trigger values are parse errors: exit 2.
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-out /tmp/x "
                      "--snapshot-at 0"),
              2);
    EXPECT_EQ(run_cli("--set l1 --seconds 2 --snapshot-out /tmp/x "
                      "--snapshot-every -5"),
              2);
}

TEST(PpmRunCli, KillAndResumeReproducesTheRunThroughTheCli)
{
    const std::string snap = tmp_path("resume.ppmsnap");
    const std::string base = "--set l1 --seconds 2 --tdp 3.5 --seed 5";

    std::string full_out;
    ASSERT_EQ(run_cli_capture(base, &full_out, nullptr), 0);

    ASSERT_EQ(run_cli(base + " --snapshot-out " + snap +
                      " --snapshot-at 700"),
              0);
    std::string resumed_out;
    ASSERT_EQ(run_cli_capture(base + " --snapshot-in " + snap,
                              &resumed_out, nullptr),
              0);
    std::remove(snap.c_str());
    // The resumed process prints the same summary, byte for byte.
    EXPECT_EQ(resumed_out, full_out);
}

TEST(PpmRunCli, CorruptSnapshotsGetDistinctOneLineDiagnostics)
{
    const std::string snap = tmp_path("victim.ppmsnap");
    const std::string base = "--set l1 --seconds 2 --tdp 3.5";
    ASSERT_EQ(run_cli(base + " --snapshot-out " + snap +
                      " --snapshot-at 700"),
              0);
    const std::string good = slurp(snap);
    ASSERT_GT(good.size(), 28u);

    const auto expect_reject = [&](const std::string& bytes,
                                   const std::string& phrase) {
        std::ofstream(snap, std::ios::binary) << bytes;
        std::string err;
        EXPECT_EQ(run_cli_capture(base + " --snapshot-in " + snap,
                                  nullptr, &err),
                  2);
        EXPECT_NE(err.find("cannot restore snapshot"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(phrase), std::string::npos) << err;
        // One line, not a stack dump.
        EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    };

    expect_reject(good.substr(0, 20), "truncated");
    expect_reject(good.substr(0, good.size() - 3), "truncated");
    std::string bad_magic = good;
    bad_magic[0] = 'Z';
    expect_reject(bad_magic, "bad magic");
    std::string bad_version = good;
    bad_version[8] = static_cast<char>(bad_version[8] + 1);
    expect_reject(bad_version, "version mismatch");
    std::string bad_payload = good;
    bad_payload[good.size() - 1] =
        static_cast<char>(bad_payload[good.size() - 1] ^ 0x40);
    expect_reject(bad_payload, "checksum mismatch");

    std::remove(snap.c_str());
    // A missing file reads as truncated (can't even see a header).
    std::string err;
    EXPECT_EQ(run_cli_capture(base + " --snapshot-in " + snap, nullptr,
                              &err),
              2);
    EXPECT_NE(err.find("cannot restore snapshot"), std::string::npos);
}

TEST(PpmRunCli, FleetChipFaultFlagsAreValidated)
{
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5 --fleet 2 "
                      "--faults chip-fail,chip-recover,seed=3"),
              0);
    // Chip-scope faults need a fleet (semantic conflict: exit 1).
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5 "
                      "--faults chip-fail"),
              1);
    // Malformed chip-fault knobs.
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5 --fleet 2 "
                      "--faults chip-fail,chip_rate=-1"),
              2);
    EXPECT_EQ(run_cli("--set l1 --seconds 1 --tdp 3.5 --fleet 2 "
                      "--faults chip-degrade,degrade=1.5"),
              2);
}

} // namespace
