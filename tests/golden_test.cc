// Golden harness outputs: reruns the seed-42 figure/table harnesses and
// compares their stdout, and the JSON files abl_fault_tolerance writes,
// byte for byte against the files under tests/golden/. The simulator is
// deterministic, so a change that claims identical output must leave every
// file equal. The one host wall-clock column, svc_service's "station cpu
// ms", is masked on both sides; nothing else is.
//
// Each run writes its fresh output to golden_out/ in the build tree. A
// change that moves output on purpose regenerates the files with
//   cp build/tests/golden_out/* tests/golden/
// after a failing `ctest -R golden`, and says why the numbers moved.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

const std::filesystem::path kGoldenDir = SENSJOIN_GOLDEN_DIR;
const std::filesystem::path kOutDir = SENSJOIN_GOLDEN_OUT_DIR;

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `binary args` in the output directory, saves its stdout as
/// `golden_name` there, and returns it. A non-zero exit fails the test.
std::string RunHarness(const std::string& binary, const std::string& args,
                       const std::string& golden_name) {
  std::filesystem::create_directories(kOutDir);
  const std::string command =
      "cd '" + kOutDir.string() + "' && '" + binary + "' " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096] = {};
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << command;
  std::ofstream(kOutDir / golden_name, std::ios::binary) << out;
  return out;
}

/// Overwrites with '#' the cells of the column headed `column` in every row
/// of the fixed-width table that header opens, up to the next blank line.
/// Cells are cut at the header's offsets, so a cell's padding is masked
/// along with its value.
std::string MaskColumn(const std::string& text, const std::string& column) {
  const size_t header_pos = text.find(column);
  EXPECT_NE(header_pos, std::string::npos) << "no column '" << column << "'";
  if (header_pos == std::string::npos) return text;
  const size_t header_start = text.rfind('\n', header_pos) + 1;
  const size_t begin = header_pos - header_start;
  const size_t header_end = text.find('\n', header_pos);
  const size_t next_column =
      text.find_first_not_of(' ', header_pos + column.size());
  size_t end = std::string::npos;
  if (next_column < header_end) end = next_column - header_start;
  std::string masked = text;
  for (size_t line = header_end + 1; line < masked.size();) {
    const size_t line_end = std::min(masked.find('\n', line), masked.size());
    if (line_end == line) break;
    const size_t width = line_end - line;
    if (begin < width) {
      const size_t cell = std::min(end, width) - begin;
      masked.replace(line + begin, cell, cell, '#');
    }
    line = line_end + 1;
  }
  return masked;
}

/// Runs `binary args` and expects its stdout to equal the golden file
/// `name`, byte for byte.
void ExpectGolden(const std::string& binary, const std::string& args,
                  const std::string& name) {
  EXPECT_EQ(ReadFile(kGoldenDir / name), RunHarness(binary, args, name));
}

TEST(GoldenTest, Fig10OverallSavings) {
  ExpectGolden(FIG10_OVERALL_SAVINGS, "--threads 4 42",
               "fig10_overall_savings.txt");
}

TEST(GoldenTest, TblBaselines) {
  ExpectGolden(TBL_BASELINES, "42", "tbl_baselines.txt");
}

TEST(GoldenTest, AblFaultTolerance) {
  ExpectGolden(ABL_FAULT_TOLERANCE,
               "--repair-json=abl_fault_tolerance_repair.json "
               "--delivery-json=abl_fault_tolerance_delivery.json 42 250",
               "abl_fault_tolerance.txt");
  for (const char* json : {"abl_fault_tolerance_repair.json",
                           "abl_fault_tolerance_delivery.json"}) {
    EXPECT_EQ(ReadFile(kGoldenDir / json), ReadFile(kOutDir / json)) << json;
  }
}

TEST(GoldenTest, AblContinuous) {
  ExpectGolden(ABL_CONTINUOUS, "42", "abl_continuous.txt");
}

TEST(GoldenTest, AblTreecut) {
  ExpectGolden(ABL_TREECUT, "42", "abl_treecut.txt");
}

TEST(GoldenTest, SvcServiceMasksStationCpuMs) {
  constexpr char kHostTimeColumn[] = "station cpu ms";
  EXPECT_EQ(MaskColumn(ReadFile(kGoldenDir / "svc_service.txt"),
                       kHostTimeColumn),
            MaskColumn(RunHarness(SVC_SERVICE, "42", "svc_service.txt"),
                       kHostTimeColumn));
}

TEST(GoldenTest, MaskColumnCoversOnlyThatColumn) {
  const std::string table =
      "title\n\n"
      "a  cpu ms  b\n"
      "-  ------  -\n"
      "1  3.25    x\n"
      "2  1024.5  y\n"
      "\n"
      "cpu ms 7\n";
  EXPECT_EQ(MaskColumn(table, "cpu ms"),
            "title\n\n"
            "a  cpu ms  b\n"
            "-  ########-\n"
            "1  ########x\n"
            "2  ########y\n"
            "\n"
            "cpu ms 7\n");
}

}  // namespace
