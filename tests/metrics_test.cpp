#include <gtest/gtest.h>

#include <sstream>

#include "qsa/metrics/table.hpp"
#include "qsa/metrics/timeseries.hpp"

namespace qsa::metrics {
namespace {

// ------------------------------------------------------------ TimeSeries

TEST(TimeSeries, RecordsInOrder) {
  TimeSeries ts;
  ts.record(sim::SimTime::minutes(2), 0.9);
  ts.record(sim::SimTime::minutes(4), 0.8);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.samples()[0].time, sim::SimTime::minutes(2));
  EXPECT_DOUBLE_EQ(ts.samples()[1].value, 0.8);
}

TEST(TimeSeries, EmptyMeanIsZero) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
}

// ----------------------------------------------------------------- Table

TEST(Table, AlignedOutput) {
  Table t({"rate", "psi"});
  t.add_row({"100", "0.95"});
  t.add_row({"1000", "0.41"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("rate"), std::string::npos);
  EXPECT_NE(s.find("0.41"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Columns align: every line has the same position for the second column.
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,4\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(0.5), "0.500");
}

TEST(TableDeath, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "precondition");
}

}  // namespace
}  // namespace qsa::metrics
