#include "serve/checkpoint.h"

#include "common/serialize.h"

namespace procrustes {
namespace serve {

namespace {

void
writeCursor(ByteWriter &w, const TrainCursor &c)
{
    w.writeI64(c.epoch);
    w.writeI64(c.stepInEpoch);
    w.writeI64(c.globalStep);
    w.writeF64(c.lossSum);
    w.writeF64(c.accSum);
    w.writeI64(c.samples);
}

TrainCursor
readCursor(ByteReader &r)
{
    TrainCursor c;
    c.epoch = r.readI64();
    c.stepInEpoch = r.readI64();
    c.globalStep = r.readI64();
    c.lossSum = r.readF64();
    c.accSum = r.readF64();
    c.samples = r.readI64();
    return c;
}

/** Skip `n` payload bytes of `r` (already validated to fit). */
void
skipBytes(ByteReader &r, uint32_t n)
{
    std::vector<uint8_t> sink(n);
    if (n)
        r.readBytes(sink.data(), n);
}

} // namespace

std::vector<uint8_t>
snapshotTrainingState(nn::Network &net, const nn::Optimizer &opt,
                      const TrainCursor &cursor)
{
    if (!opt.checkpointComplete()) {
        WARN(std::string("checkpointing optimizer kind '") +
             opt.stateKind() +
             "' which has not opted into the checkpoint contract; "
             "only its step counter will be restored");
    }

    ByteWriter w;
    w.writeU32(kCheckpointMagic);
    w.writeU32(kCheckpointVersion);
    writeCursor(w, cursor);

    const auto params = net.params();
    w.writeU32(static_cast<uint32_t>(params.size()));
    for (const nn::Param *p : params) {
        w.writeString(p->name);
        w.writeU8(p->prunable ? 1 : 0);
        w.writeTensor(p->value);
    }

    // Layer payloads are length-prefixed so restore can verify each
    // layer consumed exactly what its twin wrote — a mismatch there
    // means the architectures differ in ways the name check missed.
    w.writeU32(static_cast<uint32_t>(net.size()));
    for (size_t li = 0; li < net.size(); ++li) {
        const nn::Layer *layer = net.layer(li);
        w.writeString(layer->name());
        ByteWriter lw;
        layer->serializeState(lw);
        w.writeU32(static_cast<uint32_t>(lw.size()));
        w.writeBytes(lw.bytes().data(), lw.size());
    }

    w.writeString(opt.stateKind());
    ByteWriter ow;
    opt.serializeState(ow);
    w.writeU32(static_cast<uint32_t>(ow.size()));
    w.writeBytes(ow.bytes().data(), ow.size());

    return w.bytes();
}

TrainCursor
restoreTrainingState(const std::vector<uint8_t> &blob, nn::Network &net,
                     nn::Optimizer &opt)
{
    ByteReader r(blob);
    if (r.readU32() != kCheckpointMagic)
        FATAL("not a checkpoint: bad magic");
    const uint32_t version = r.readU32();
    if (version != kCheckpointVersion) {
        FATAL("unsupported checkpoint version " +
              std::to_string(version) + " (expected " +
              std::to_string(kCheckpointVersion) + ")");
    }
    const TrainCursor cursor = readCursor(r);

    const auto params = net.params();
    const uint32_t param_count = r.readU32();
    if (param_count != params.size()) {
        FATAL("checkpoint/network mismatch: " +
              std::to_string(param_count) + " parameters in snapshot, " +
              std::to_string(params.size()) + " in network");
    }
    for (nn::Param *p : params) {
        const std::string name = r.readString();
        if (name != p->name) {
            FATAL("checkpoint/network mismatch: parameter '" + name +
                  "' in snapshot, '" + p->name + "' in network");
        }
        const bool prunable = r.readU8() != 0;
        if (prunable != p->prunable) {
            FATAL("checkpoint/network mismatch: prunability differs "
                  "for parameter '" +
                  name + "'");
        }
        Tensor value = r.readTensor();
        if (!(value.shape() == p->value.shape())) {
            FATAL("checkpoint/network mismatch: shape differs for "
                  "parameter '" +
                  name + "'");
        }
        p->value = std::move(value);
    }

    const uint32_t layer_count = r.readU32();
    if (layer_count != net.size()) {
        FATAL("checkpoint/network mismatch: " +
              std::to_string(layer_count) + " layers in snapshot, " +
              std::to_string(net.size()) + " in network");
    }
    for (size_t li = 0; li < net.size(); ++li) {
        nn::Layer *layer = net.layer(li);
        const std::string name = r.readString();
        if (name != layer->name()) {
            FATAL("checkpoint/network mismatch: layer '" + name +
                  "' in snapshot, '" + layer->name() + "' in network");
        }
        const uint32_t payload = r.readU32();
        if (payload > r.remaining())
            FATAL("checkpoint truncated: layer payload overruns blob");
        ByteReader lr(blob.data() + r.offset(), payload);
        layer->restoreState(lr);
        if (!lr.atEnd()) {
            FATAL("checkpoint corrupt: layer '" + name + "' left " +
                  std::to_string(lr.remaining()) +
                  " unread state bytes");
        }
        skipBytes(r, payload);
    }

    const std::string kind = r.readString();
    if (kind != opt.stateKind()) {
        FATAL("checkpoint/optimizer mismatch: snapshot holds '" + kind +
              "' state, optimizer is '" + opt.stateKind() + "'");
    }
    const uint32_t opt_payload = r.readU32();
    if (opt_payload > r.remaining())
        FATAL("checkpoint truncated: optimizer payload overruns blob");
    ByteReader orr(blob.data() + r.offset(), opt_payload);
    opt.restoreState(orr);
    if (!orr.atEnd())
        FATAL("checkpoint corrupt: optimizer left unread state bytes");
    skipBytes(r, opt_payload);

    if (!r.atEnd())
        FATAL("checkpoint corrupt: trailing bytes after snapshot");
    return cursor;
}

} // namespace serve
} // namespace procrustes
