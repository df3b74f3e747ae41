#include "kernels/backend.h"

#include <cstdlib>

#include "common/logging.h"

namespace procrustes {
namespace kernels {

namespace {

KernelBackend
initialBackend()
{
    if (const char *env = std::getenv("PROCRUSTES_KERNEL_BACKEND"))
        return parseKernelBackend(env);
    return KernelBackend::kGemm;
}

} // namespace

KernelBackend
defaultKernelBackend()
{
    static const KernelBackend backend = initialBackend();
    return backend;
}

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
    case KernelBackend::kNaive:
        return "naive";
    case KernelBackend::kSparse:
        return "sparse";
    case KernelBackend::kGemm:
        break;
    }
    return "gemm";
}

KernelBackend
parseKernelBackend(const std::string &name)
{
    if (name == "naive")
        return KernelBackend::kNaive;
    if (name == "gemm")
        return KernelBackend::kGemm;
    if (name == "sparse")
        return KernelBackend::kSparse;
    FATAL("unknown kernel backend '" + name +
          "' (want naive|gemm|sparse)");
}

} // namespace kernels
} // namespace procrustes
