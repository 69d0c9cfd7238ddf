// Tests for the experiment harness: table formatting and the shared
// command-line options.
#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/pagerank/pagerank.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/options.hpp"

namespace sdsm::harness {
namespace {

TEST(Harness, SpeedupGuardsZero) {
  EXPECT_EQ(speedup(10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
}

/// A kernel-run row with the given headline figures.
Row run_row(const char* group, const char* variant, double seconds,
            std::uint64_t messages, double megabytes, const char* note = "") {
  api::KernelResult r;
  r.seconds = seconds;
  r.messages = messages;
  r.megabytes = megabytes;
  return kernel_row(group, variant, r, 2 * seconds, note);
}

TEST(Harness, TablePrintsAllRowsAndGroupsOnce) {
  Table t("Moldyn - 8 processor results");
  t.add(run_row("Every 12 iterations", "CHAOS", 1.5, 15704, 190.0));
  t.add(run_row("Every 12 iterations", "Tmk base", 1.4, 62149, 160.0));
  t.add(run_row("Every 12 iterations", "Tmk optimized", 1.2, 14528, 137.0));
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Moldyn - 8 processor results"), std::string::npos);
  EXPECT_NE(text.find("CHAOS"), std::string::npos);
  EXPECT_NE(text.find("Tmk optimized"), std::string::npos);
  EXPECT_NE(text.find("62149"), std::string::npos);
  // The group label appears exactly once.
  const auto first = text.find("Every 12 iterations");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("Every 12 iterations", first + 1), std::string::npos);
}

TEST(Harness, KernelRowComputesSpeedupAgainstItsBaseline) {
  const Row row = run_row("g", "v", 2.0, 1, 1.0);
  EXPECT_DOUBLE_EQ(row.seq_seconds, 4.0);
  EXPECT_DOUBLE_EQ(row.speedup, 2.0);
  EXPECT_EQ(row.result.messages, 1u);
}

TEST(Harness, CsvEmitsOneLinePerRow) {
  Table t("T");
  t.add(run_row("g", "v1", 1, 3, 4));
  t.add(run_row("g", "v2", 1, 3, 4));
  std::ostringstream os;
  t.print_csv(os);
  const std::string text = os.str();
  int lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);  // header + 2 rows
  EXPECT_NE(text.find("g,v1"), std::string::npos);
  EXPECT_NE(text.find("group,variant,seconds,messages"), std::string::npos);
}

TEST(Harness, JsonEmitsTitleAndOneObjectPerRow) {
  Table t("api bench");
  Row chaos = run_row("g", "CHAOS", 1.5, 10, 0.5, "a \"quoted\" note");
  chaos.result.refs = 123456;
  chaos.result.max_row = 777;
  t.add(chaos);
  t.add(run_row("g", "Tmk base", 2.5, 99, 1.5));
  std::ostringstream os;
  t.print_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"title\": \"api bench\""), std::string::npos);
  EXPECT_NE(text.find("\"variant\": \"CHAOS\""), std::string::npos);
  EXPECT_NE(text.find("\"messages\": 99"), std::string::npos);
  EXPECT_NE(text.find("a \\\"quoted\\\" note"), std::string::npos);
  // The CSR shape audit columns ride along (default 0 when not set).
  EXPECT_NE(text.find("\"refs\": 123456"), std::string::npos);
  EXPECT_NE(text.find("\"max_row\": 777"), std::string::npos);
  EXPECT_NE(text.find("\"refs\": 0"), std::string::npos);
  // Hidden schema fields are not columns.
  EXPECT_EQ(text.find("\"checksum\""), std::string::npos);
  EXPECT_EQ(text.find("\"steps_run\""), std::string::npos);
  int objects = 0;
  for (std::size_t i = 0; text.find("{\"group\"", i) != std::string::npos;
       i = text.find("{\"group\"", i) + 1) {
    ++objects;
  }
  EXPECT_EQ(objects, 2);
}

TEST(Harness, JsonHeaderDeclaresEveryColumnWithItsGate) {
  Table t("gates");
  std::ostringstream os;
  t.print_json(os);
  const std::string text = os.str();
  for (const char* entry :
       {"{\"key\": \"group\", \"gate\": \"none\"}",
        "{\"key\": \"seconds\", \"gate\": \"lower\"}",
        "{\"key\": \"messages\", \"gate\": \"exact\"}",
        "{\"key\": \"megabytes\", \"gate\": \"exact\"}",
        "{\"key\": \"overhead_seconds\", \"gate\": \"none\"}",
        "{\"key\": \"barriers_per_step\", \"gate\": \"exact\"}",
        "{\"key\": \"replications\", \"gate\": \"exact\"}",
        "{\"key\": \"ghost_promotions\", \"gate\": \"exact\"}",
        "{\"key\": \"jobs_per_sec\", \"gate\": \"higher\"}",
        "{\"key\": \"cache_hits\", \"gate\": \"exact\"}",
        "{\"key\": \"note\", \"gate\": \"none\"}"}) {
    EXPECT_NE(text.find(entry), std::string::npos) << entry;
  }
  EXPECT_EQ(text.find("validate_calls"), std::string::npos);
}

TEST(Harness, CoherenceColumnsOnlyOnRowsThatAskForThem) {
  Table t("coherence");
  Row stat = run_row("g", "static", 1, 1, 1);
  stat.result.tmk.ghost_promotions = 16;
  Row adaptive = stat;
  adaptive.variant = "adaptive";
  adaptive.coherence_cols = true;
  t.add(stat);
  t.add(adaptive);
  std::ostringstream os;
  t.print_json(os);
  const std::string text = os.str();
  const std::size_t rows = text.find("\"rows\"");
  ASSERT_NE(rows, std::string::npos);
  const std::size_t hit = text.find("\"ghost_promotions\": 16", rows);
  ASSERT_NE(hit, std::string::npos);
  EXPECT_GT(hit, text.find("\"variant\": \"adaptive\""));
  EXPECT_EQ(text.find("\"ghost_promotions\": 16", hit + 1),
            std::string::npos);
}

// Every knob flag lands in Options::knobs, and laying them over a
// workload's default_options() sets each knob while keeping the
// workload's own settings (pagerank's replicated CHAOS table).
TEST(HarnessOptions, ParsedKnobsLayOverWorkloadDefaults) {
  const char* argv[] = {"prog", "--transport=socket", "--schedule=tournament",
                        "--coherence=adaptive", "--exec=bucketed"};
  const Options o = Options::parse(5, const_cast<char**>(argv));
  const api::BackendOptions opts =
      api::with_knobs(apps::pagerank::default_options(), o.knobs);
  EXPECT_EQ(opts.transport, net::TransportKind::kSocket);
  EXPECT_EQ(opts.round_schedule, api::RoundSchedule::kTournament);
  EXPECT_EQ(opts.coherence, coherence::CoherencePolicy::kAdaptive);
  EXPECT_EQ(opts.exec_engine, api::ExecEngine::kBucketed);
  EXPECT_FALSE(opts.cross_step_prefetch);
  EXPECT_EQ(opts.table, chaos::TableKind::kReplicated);
  EXPECT_EQ(opts.table, apps::pagerank::default_options().table);
}

TEST(HarnessOptions, DefaultsSeedTheKnobs) {
  api::RunKnobs defaults;
  defaults.transport = net::TransportKind::kSocket;
  const char* bare[] = {"prog"};
  EXPECT_EQ(Options::parse(1, const_cast<char**>(bare), {}, defaults)
                .knobs.transport,
            net::TransportKind::kSocket);
  const char* argv[] = {"prog", "--transport=inproc"};
  EXPECT_EQ(Options::parse(2, const_cast<char**>(argv), {}, defaults)
                .knobs.transport,
            net::TransportKind::kInProc);
}

TEST(HarnessOptions, ProcessModeRunsOnSockets) {
  const char* argv[] = {"prog", "--mode=processes"};
  const Options o = Options::parse(2, const_cast<char**>(argv));
  EXPECT_EQ(o.mode, DeployMode::kProcesses);
  EXPECT_EQ(o.knobs.transport, net::TransportKind::kSocket);
}

using HarnessOptionsDeathTest = ::testing::Test;

TEST_F(HarnessOptionsDeathTest, RejectsWhatNoBinaryCanRun) {
  const char* retired[] = {"prog", "--diff-engine=word"};
  EXPECT_EXIT(Options::parse(2, const_cast<char**>(retired)),
              ::testing::ExitedWithCode(2), "--diff-engine=word");
  const char* stray[] = {"prog", "--verify"};
  EXPECT_EXIT(Options::parse(2, const_cast<char**>(stray)),
              ::testing::ExitedWithCode(2), "--verify");
  const char* inproc[] = {"prog", "--mode=processes", "--transport=inproc"};
  EXPECT_EXIT(Options::parse(3, const_cast<char**>(inproc)),
              ::testing::ExitedWithCode(2), "--transport value 'inproc'");
  EXPECT_EXIT(Options::reject("--mode", "processes", "threads only"),
              ::testing::ExitedWithCode(2),
              "unsupported --mode value 'processes' \\(threads only\\)");
}

}  // namespace
}  // namespace sdsm::harness
