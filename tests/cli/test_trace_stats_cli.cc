/**
 * @file
 * Black-box CLI validation of the trace_stats binary: every CSV cell
 * must be a finite number, and a line with one bad cell is skipped
 * whole with a warning, never read as 0 or inf.  The binary path is
 * injected by CMake as TRACE_STATS_BIN.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef TRACE_STATS_BIN
#error "TRACE_STATS_BIN must point at the trace_stats binary"
#endif

namespace {

/** Scratch path unique to this test process. */
std::string
tmp_path(const std::string& stem)
{
    return "/tmp/ppm_trace_stats_" + std::to_string(getpid()) + "_" + stem;
}

/**
 * Write `trace` to a .csv file, run `trace_stats FILE --csv` on it and
 * return stderr followed by stdout.  `*code` gets the exit code.
 */
std::string
stats_of(const std::string& trace, int* code)
{
    const std::string in = tmp_path("in.csv");
    const std::string out = tmp_path("out.txt");
    std::ofstream(in) << trace;
    const std::string cmd = std::string(TRACE_STATS_BIN) + " " + in +
                            " --csv > " + out + " 2>&1";
    const int status = std::system(cmd.c_str());
    *code = status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::stringstream ss;
    ss << std::ifstream(out).rdbuf();
    std::remove(in.c_str());
    std::remove(out.c_str());
    return ss.str();
}

TEST(TraceStatsCli, SkipsLinesWithNonNumericCells)
{
    int code = 0;
    // A non-numeric value cell.
    std::string out = stats_of("time_s,series,value\n"
                               "1.0,x,abc\n"
                               "2.0,x,4\n",
                               &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("warning: skipping malformed line 2\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("x,1,4.0000,4.0000,4.0000\n"), std::string::npos)
        << out;

    // A non-numeric time cell.
    out = stats_of("time_s,series,value\n"
                   "zzz,x,1\n"
                   "2.0,x,4\n",
                   &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("warning: skipping malformed line 2\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("x,1,4.0000,4.0000,4.0000\n"), std::string::npos)
        << out;

    // A wide-format cell out of double range: the whole line goes.
    out = stats_of("time_s,a,b\n"
                   "1.0,1e999,2\n"
                   "2.0,3,4\n",
                   &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("warning: skipping malformed line 2\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("a,1,3.0000,3.0000,3.0000\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("b,1,4.0000,4.0000,4.0000\n"), std::string::npos)
        << out;
}

} // namespace
