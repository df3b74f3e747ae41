#include "serve/stats_writer.h"

#include "common/logging.h"

namespace procrustes {
namespace serve {

namespace {

/** `s` as the body of a JSON string: quote, backslash and the control
    characters escaped. */
std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const unsigned char u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (u < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", u);
            out += esc;
        } else {
            out += ch;
        }
    }
    return out;
}

} // namespace

StatsWriter::StatsWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "w");
    if (!file_)
        FATAL("cannot open stats file '" + path + "'");
}

StatsWriter::~StatsWriter()
{
    if (file_)
        std::fclose(file_);
}

void
StatsWriter::writeStep(const std::string &job, const nn::StepTelemetry &t)
{
    std::fprintf(file_,
                 "{\"kind\": \"step\", \"job\": \"%s\", \"epoch\": %lld, "
                 "\"step\": %lld, \"batch\": %lld, \"loss\": %.17g}\n",
                 jsonEscaped(job).c_str(), static_cast<long long>(t.epoch),
                 static_cast<long long>(t.step),
                 static_cast<long long>(t.batchSize), t.batchLoss);
    std::fflush(file_);
    ++lines_;
}

void
StatsWriter::writeEpoch(const std::string &job, const nn::EpochStats &st)
{
    std::fprintf(file_,
                 "{\"kind\": \"epoch\", \"job\": \"%s\", \"epoch\": %lld, "
                 "\"train_loss\": %.17g, \"train_accuracy\": %.17g, "
                 "\"val_accuracy\": %.17g, \"weight_sparsity\": %.17g}\n",
                 jsonEscaped(job).c_str(),
                 static_cast<long long>(st.epoch),
                 st.trainLoss, st.trainAccuracy, st.valAccuracy,
                 st.weightSparsity);
    std::fflush(file_);
    ++lines_;
}

} // namespace serve
} // namespace procrustes
