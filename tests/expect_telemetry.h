/**
 * @file
 * Shared assertion for the driver-parity tests: two StepTelemetry
 * streams carry the same bits in every field a training driver fills.
 */

#ifndef PROCRUSTES_TESTS_EXPECT_TELEMETRY_H_
#define PROCRUSTES_TESTS_EXPECT_TELEMETRY_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nn/trainer.h"

namespace procrustes {

/** Step header, then per report: name, executed MACs, densities. */
inline void
expectTelemetryEqual(const std::vector<nn::StepTelemetry> &a,
                     const std::vector<nn::StepTelemetry> &b,
                     const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const std::string at = what + " step " + std::to_string(i);
        EXPECT_EQ(a[i].epoch, b[i].epoch) << at;
        EXPECT_EQ(a[i].step, b[i].step) << at;
        EXPECT_EQ(a[i].batchSize, b[i].batchSize) << at;
        EXPECT_EQ(a[i].batchLoss, b[i].batchLoss) << at;
        ASSERT_EQ(a[i].reports.size(), b[i].reports.size()) << at;
        for (size_t r = 0; r < a[i].reports.size(); ++r) {
            const nn::LayerStepReport &x = a[i].reports[r];
            const nn::LayerStepReport &y = b[i].reports[r];
            const std::string lat = at + " layer " + x.layerName;
            EXPECT_EQ(x.layerName, y.layerName) << lat;
            EXPECT_EQ(x.fwMacs, y.fwMacs) << lat;
            EXPECT_EQ(x.bwDataMacs, y.bwDataMacs) << lat;
            EXPECT_EQ(x.bwWeightMacs, y.bwWeightMacs) << lat;
            EXPECT_EQ(x.inputDensity, y.inputDensity) << lat;
            EXPECT_EQ(x.outputDensity, y.outputDensity) << lat;
            EXPECT_EQ(x.inputChannelDensity, y.inputChannelDensity) << lat;
            EXPECT_EQ(x.inputSampleDensity, y.inputSampleDensity) << lat;
            EXPECT_EQ(x.inputSampleHalfDensity, y.inputSampleHalfDensity)
                << lat;
            EXPECT_EQ(x.inputRowDensity, y.inputRowDensity) << lat;
            EXPECT_EQ(x.inputColDensity, y.inputColDensity) << lat;
        }
    }
}

} // namespace procrustes

#endif // PROCRUSTES_TESTS_EXPECT_TELEMETRY_H_
