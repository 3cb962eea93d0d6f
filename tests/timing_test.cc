/**
 * @file
 * Unit and property tests for the timing substrate: technology
 * scaling, wire delays (Bakoglu), area, CactiLite, issue logic and the
 * clock table.
 */

#include <cmath>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "timing/area.h"
#include "timing/cacti.h"
#include "timing/clock_table.h"
#include "timing/issue_logic.h"
#include "timing/technology.h"
#include "timing/wire.h"

namespace cap::timing {

// Prints a WireModelTechTest parameter by name: gtest's default prints
// the pointer, so the listed test names (which carry
// "# GetParam() = ...") would change with the load address on every
// run. Outside the anonymous namespace so that lookup by argument type
// finds it.
void
PrintTo(const Technology *tech, std::ostream *os)
{
    *os << tech->name();
}

namespace {

// ---------------------------------------------------------------------
// Technology
// ---------------------------------------------------------------------

TEST(TechnologyTest, BufferTauScalesLinearlyWithFeature)
{
    double tau250 = Technology::um250().bufferTau();
    double tau180 = Technology::um180().bufferTau();
    double tau120 = Technology::um120().bufferTau();
    EXPECT_NEAR(tau180 / tau250, 0.18 / 0.25, 1e-12);
    EXPECT_NEAR(tau120 / tau250, 0.12 / 0.25, 1e-12);
}

TEST(TechnologyTest, WireParametersDoNotScale)
{
    EXPECT_DOUBLE_EQ(Technology::um250().wireResistancePerMm(),
                     Technology::um120().wireResistancePerMm());
    EXPECT_DOUBLE_EQ(Technology::um250().wireCapacitancePerMm(),
                     Technology::um120().wireCapacitancePerMm());
}

TEST(TechnologyTest, DeviceScaleAgainstReference)
{
    EXPECT_DOUBLE_EQ(Technology::um250().deviceScale(), 1.0);
    EXPECT_NEAR(Technology::um180().deviceScale(), 0.72, 1e-12);
}

// ---------------------------------------------------------------------
// WireModel
// ---------------------------------------------------------------------

class WireModelTechTest : public testing::TestWithParam<const Technology *>
{
};

TEST_P(WireModelTechTest, DelaysMonotoneInLength)
{
    WireModel wires(*GetParam());
    double prev_unbuf = -1.0, prev_buf = -1.0;
    for (double len = 0.5; len <= 10.0; len += 0.5) {
        double unbuf = wires.unbufferedDelay(len);
        double buf = wires.bufferedDelay(len);
        EXPECT_GT(unbuf, prev_unbuf);
        EXPECT_GT(buf, prev_buf);
        prev_unbuf = unbuf;
        prev_buf = buf;
    }
}

TEST_P(WireModelTechTest, CrossoverExistsAndSeparates)
{
    WireModel wires(*GetParam());
    double crossover = wires.crossoverLength(50.0);
    ASSERT_TRUE(std::isfinite(crossover));
    EXPECT_GT(crossover, 0.0);
    // Below the crossover the unbuffered wire wins; above, buffers win.
    EXPECT_LT(wires.unbufferedDelay(crossover * 0.5),
              wires.bufferedDelay(crossover * 0.5));
    EXPECT_GT(wires.unbufferedDelay(crossover * 2.0),
              wires.bufferedDelay(crossover * 2.0));
}

TEST_P(WireModelTechTest, RepeaterStagesGrowWithLength)
{
    WireModel wires(*GetParam());
    RepeaterPlan short_plan = wires.optimalRepeaters(1.0);
    RepeaterPlan long_plan = wires.optimalRepeaters(16.0);
    EXPECT_GE(long_plan.stages, short_plan.stages);
    EXPECT_GT(long_plan.stages, 1);
    EXPECT_GT(long_plan.sizing, 0.0);
}

TEST_P(WireModelTechTest, SegmentDelaySumsToMarginalDelay)
{
    WireModel wires(*GetParam());
    double len = 8.0;
    int segments = 16;
    double per_segment = wires.segmentDelay(len, segments);
    double marginal = wires.bufferedDelay(len) -
                      GetParam()->bufferFixedOverhead();
    EXPECT_NEAR(per_segment * segments, marginal, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechnologies, WireModelTechTest,
    testing::Values(&Technology::um250(), &Technology::um180(),
                    &Technology::um120()),
    [](const testing::TestParamInfo<const Technology *> &info) {
        std::string name = info.param->name();
        name.erase(name.find('.'), 1);
        return name;
    });

TEST(WireModelTest, UnbufferedIsTechnologyIndependent)
{
    // Wires do not scale, so the unbuffered curve is shared (Figure 1
    // has a single unbuffered line).
    WireModel w250(Technology::um250());
    WireModel w120(Technology::um120());
    EXPECT_DOUBLE_EQ(w250.unbufferedDelay(5.0), w120.unbufferedDelay(5.0));
}

TEST(WireModelTest, BufferedDelayImprovesWithSmallerFeature)
{
    WireModel w250(Technology::um250());
    WireModel w180(Technology::um180());
    WireModel w120(Technology::um120());
    for (double len = 1.0; len <= 10.0; len += 3.0) {
        EXPECT_GT(w250.bufferedDelay(len), w180.bufferedDelay(len));
        EXPECT_GT(w180.bufferedDelay(len), w120.bufferedDelay(len));
    }
}

TEST(WireModelTest, UnbufferedGrowthIsSuperlinear)
{
    WireModel wires(Technology::um180());
    double d1 = wires.unbufferedDelay(4.0);
    double d2 = wires.unbufferedDelay(8.0);
    EXPECT_GT(d2, 2.0 * d1);
}

TEST(WireModelTest, BufferedGrowthIsLinearBeyondOverhead)
{
    WireModel wires(Technology::um180());
    double overhead = Technology::um180().bufferFixedOverhead();
    double d4 = wires.bufferedDelay(4.0) - overhead;
    double d8 = wires.bufferedDelay(8.0) - overhead;
    EXPECT_NEAR(d8 / d4, 2.0, 1e-9);
}

TEST(WireModelTest, ZeroLengthIsOverheadOnly)
{
    WireModel wires(Technology::um180());
    EXPECT_DOUBLE_EQ(wires.unbufferedDelay(0.0), 0.0);
    EXPECT_DOUBLE_EQ(wires.bufferedDelay(0.0),
                     Technology::um180().bufferFixedOverhead());
}

// ---------------------------------------------------------------------
// AreaModel
// ---------------------------------------------------------------------

TEST(AreaModelTest, CamCellTwiceRamCell)
{
    EXPECT_DOUBLE_EQ(AreaModel::cellAreaUm2(true, 1),
                     2.0 * AreaModel::cellAreaUm2(false, 1));
}

TEST(AreaModelTest, PortScalingIsQuadratic)
{
    double p1 = AreaModel::cellAreaUm2(false, 1);
    double p2 = AreaModel::cellAreaUm2(false, 2);
    double p4 = AreaModel::cellAreaUm2(false, 4);
    EXPECT_DOUBLE_EQ(p2, 4.0 * p1);
    EXPECT_DOUBLE_EQ(p4, 16.0 * p1);
}

TEST(AreaModelTest, IqEntryMatchesPaperFigure)
{
    // 52 b 1-port RAM + 12 b 3-port CAM + 6 b 4-port CAM ~ 60 B of
    // single-ported RAM (paper Section 2).
    EXPECT_EQ(AreaModel::iqEntryEquivalentBits(), 460u);
    uint64_t bytes = AreaModel::iqEntryEquivalentBytes();
    EXPECT_GE(bytes, 55u);
    EXPECT_LE(bytes, 62u);
}

TEST(AreaModelTest, SubarrayPitchScalesWithSqrtCapacity)
{
    double p2k = AreaModel::subarrayPitchMm(2048);
    double p8k = AreaModel::subarrayPitchMm(8192);
    EXPECT_NEAR(p8k / p2k, 2.0, 1e-9);
}

TEST(AreaModelTest, IqStackHeightLinearInEntries)
{
    double h16 = AreaModel::iqStackHeightMm(16);
    double h64 = AreaModel::iqStackHeightMm(64);
    EXPECT_NEAR(h64 / h16, 4.0, 1e-9);
}

// ---------------------------------------------------------------------
// CactiLite
// ---------------------------------------------------------------------

TEST(CactiLiteTest, AccessTimeMonotoneInCapacity)
{
    CactiLite cacti(Technology::um180());
    double prev = 0.0;
    for (uint64_t kb : {4ull, 8ull, 16ull, 32ull, 64ull}) {
        CacheOrg org{kb * 1024, 2, 32, 2};
        double t = cacti.accessTime(org);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CactiLiteTest, BankingReducesAccessTime)
{
    CactiLite cacti(Technology::um180());
    CacheOrg one_bank{kib(32), 2, 32, 1};
    CacheOrg four_banks{kib(32), 2, 32, 4};
    EXPECT_GT(cacti.accessTime(one_bank), cacti.accessTime(four_banks));
}

TEST(CactiLiteTest, DeviceStagesScaleWithFeature)
{
    CactiLite c250(Technology::um250());
    CactiLite c180(Technology::um180());
    EXPECT_NEAR(c180.senseDelay() / c250.senseDelay(), 0.72, 1e-9);
    EXPECT_NEAR(c180.compareDelay() / c250.compareDelay(), 0.72, 1e-9);
}

TEST(CactiLiteTest, IncrementAccessInCalibratedRange)
{
    // The paper's 8 KB two-way, two-way-banked increment at 0.18 um
    // must land near 1.45 ns for the study's cycle times to hold.
    CactiLite cacti(Technology::um180());
    CacheOrg increment{kib(8), 2, 32, 2};
    double t = cacti.accessTime(increment);
    EXPECT_GT(t, 1.2);
    EXPECT_LT(t, 1.7);
}

TEST(CactiLiteTest, SetsComputation)
{
    CacheOrg org{kib(8), 2, 32, 2};
    EXPECT_EQ(org.sets(), 128u);
}

TEST(CactiLiteDeathTest, RejectsBadOrganizations)
{
    CactiLite cacti(Technology::um180());
    CacheOrg zero_size{0, 2, 32, 2};
    EXPECT_EXIT(cacti.accessTime(zero_size), testing::ExitedWithCode(1),
                "positive");
    CacheOrg bad_sets{kib(8) + 32, 2, 32, 2};
    EXPECT_EXIT(cacti.accessTime(bad_sets), testing::ExitedWithCode(1),
                "divisible");
    CacheOrg bad_assoc{kib(8), 0, 32, 2};
    EXPECT_EXIT(cacti.accessTime(bad_assoc), testing::ExitedWithCode(1),
                "associativity");
}

// ---------------------------------------------------------------------
// IssueLogicModel
// ---------------------------------------------------------------------

TEST(IssueLogicTest, SelectTreeLevels)
{
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(4), 1);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(16), 2);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(32), 3);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(48), 3);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(64), 3);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(80), 4);
    EXPECT_EQ(IssueLogicModel::selectTreeLevels(128), 4);
}

TEST(IssueLogicTest, WakeupLinearInEntries)
{
    IssueLogicModel logic(Technology::um180());
    double w16 = logic.wakeupDelay(16);
    double w32 = logic.wakeupDelay(32);
    double w48 = logic.wakeupDelay(48);
    EXPECT_NEAR(w48 - w32, w32 - w16, 1e-12);
}

TEST(IssueLogicTest, CycleTimeMonotoneInEntries)
{
    IssueLogicModel logic(Technology::um180());
    double prev = 0.0;
    for (int entries = 16; entries <= 128; entries += 16) {
        double cycle = logic.cycleTime(entries);
        EXPECT_GT(cycle, prev);
        prev = cycle;
    }
}

TEST(IssueLogicTest, CalibratedCycleRange)
{
    IssueLogicModel logic(Technology::um180());
    EXPECT_NEAR(logic.cycleTime(16), 0.36, 0.05);
    EXPECT_NEAR(logic.cycleTime(64), 0.50, 0.05);
    EXPECT_NEAR(logic.cycleTime(128), 0.65, 0.06);
}

TEST(IssueLogicTest, ScalesWithFeature)
{
    IssueLogicModel l250(Technology::um250());
    IssueLogicModel l180(Technology::um180());
    EXPECT_NEAR(l180.cycleTime(64) / l250.cycleTime(64), 0.72, 1e-9);
}

TEST(IssueLogicDeathTest, RejectsNonIncrementSizes)
{
    IssueLogicModel logic(Technology::um180());
    EXPECT_DEATH(logic.wakeupDelay(20), "multiple");
    EXPECT_DEATH(logic.wakeupDelay(0), "multiple");
}

// ---------------------------------------------------------------------
// ClockTable
// ---------------------------------------------------------------------

TEST(ClockTableTest, WorstCaseRule)
{
    ClockTable table;
    table.setFixedFloor(0.4);
    EXPECT_DOUBLE_EQ(table.cycleFor(0.3), 0.4);
    EXPECT_DOUBLE_EQ(table.cycleFor(0.7), 0.7);
    std::vector<ClockRequirement> reqs{{"a", 0.5}, {"b", 0.9}, {"c", 0.2}};
    EXPECT_DOUBLE_EQ(table.cycleFor(reqs), 0.9);
}

TEST(ClockTableTest, QuantizationRoundsUp)
{
    ClockTable table;
    table.setQuantizationStep(0.1);
    EXPECT_NEAR(table.cycleFor(0.41), 0.5, 1e-12);
    EXPECT_NEAR(table.cycleFor(0.50), 0.5, 1e-12);
    EXPECT_NEAR(table.cycleFor(0.501), 0.6, 1e-12);
}

TEST(ClockTableTest, QuantizationNeverSpeedsUp)
{
    ClockTable table;
    for (double step : {0.05, 0.1, 0.25}) {
        table.setQuantizationStep(step);
        for (double req = 0.3; req < 1.2; req += 0.07)
            EXPECT_GE(table.cycleFor(req), req - 1e-12);
    }
}

TEST(ClockTableTest, SwitchPenaltyConfigurable)
{
    ClockTable table;
    EXPECT_GT(table.switchPenaltyCycles(), 0u);
    table.setSwitchPenaltyCycles(77);
    EXPECT_EQ(table.switchPenaltyCycles(), 77u);
}

} // namespace
} // namespace cap::timing
