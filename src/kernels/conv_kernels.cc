#include "kernels/conv_kernels.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "kernels/gemm.h"

namespace procrustes {
namespace kernels {

ConvGeom
convGeomFromTensors(const Tensor &x, const Shape &w_shape, int64_t stride,
                    int64_t pad)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4, "conv input must be NCHW");
    PROCRUSTES_ASSERT(w_shape.rank() == 4, "conv filters must be KCRS");
    PROCRUSTES_ASSERT(xs[1] == w_shape[1], "conv channel mismatch");
    return makeConvGeom(xs[1], xs[2], xs[3], w_shape[0], w_shape[2],
                        w_shape[3], stride, pad);
}

namespace {

/**
 * True when splitting the batch across tasks beats splitting each
 * image's GEMM into row panels: every thread gets at least one whole
 * image. Both decompositions are bitwise identical per output element
 * (images are independent; serial and row-panel GEMM share one
 * reduction order), so this is purely a utilization choice and cannot
 * perturb results across thread counts.
 */
bool
useBatchParallel(int64_t n, const ThreadPool &pool)
{
    return n >= pool.numThreads() && pool.numThreads() > 1;
}

} // namespace

Tensor
convForwardGemm(const Tensor &x, const Tensor &w, const Tensor *bias,
                const ConvGeom &g)
{
    const int64_t n = x.shape()[0];
    const int64_t crs = g.colRows();
    const int64_t pq = g.colCols();
    // gemm(accumulate=false) writes every element before the bias add.
    Tensor y = Tensor::uninitialized(Shape{n, g.k, g.p, g.q});

    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = bias ? bias->data() : nullptr;
    float *py = y.data();

    ThreadPool &pool = ThreadPool::global();
    const int64_t chw = g.c * g.h * g.w;
    // Lowers and multiplies images [n0, n1) in a private workspace.
    auto forwardImages = [&](int64_t n0, int64_t n1) {
        std::unique_ptr<float[]> col(
            new float[static_cast<size_t>(crs * pq)]);
        for (int64_t in = n0; in < n1; ++in) {
            im2col(px + in * chw, g, col.get());
            float *yn = py + in * g.k * pq;
            // Explicit-pool overload: no global-pool lookup per image;
            // the nested call runs serially inside a worker either way.
            gemm(g.k, pq, crs, pw, crs, col.get(), pq, yn, pq,
                 /*accumulate=*/false, &pool);
            if (pb) {
                for (int64_t ok = 0; ok < g.k; ++ok) {
                    const float b = pb[ok];
                    float *row = yn + ok * pq;
                    for (int64_t j = 0; j < pq; ++j)
                        row[j] += b;
                }
            }
        }
    };

    // Images are independent: a wide batch gives each task its own
    // images, and the nested GEMM runs serially inside the task (the
    // pool never nests). A narrow batch keeps the batch loop serial
    // and lets the GEMM spread row panels across the pool instead.
    if (useBatchParallel(n, pool))
        pool.parallelFor(0, n, forwardImages);
    else
        forwardImages(0, n);
    return y;
}

Tensor
convBackwardGemm(const Tensor &x, const Tensor &w, const Tensor &dy,
                 const ConvGeom &g, Tensor *dw, Tensor *db)
{
    const int64_t n = x.shape()[0];
    const int64_t crs = g.colRows();
    const int64_t pq = g.colCols();
    PROCRUSTES_ASSERT(dy.shape() == Shape({n, g.k, g.p, g.q}),
                      "dy shape mismatch in conv backward");
    PROCRUSTES_ASSERT(dw && dw->shape() == w.shape(),
                      "dw shape mismatch in conv backward");

    Tensor dx(x.shape());

    // The backward filter view: one transpose serves every image.
    std::unique_ptr<float[]> wt(new float[static_cast<size_t>(crs * g.k)]);
    transpose(w.data(), g.k, crs, wt.get());

    // Per-image dW / db partials. Whichever task computes image `in`
    // writes its slice, and the reduction walks images in index order
    // — so the accumulation order per dW element is fixed for every
    // thread count (and every batch decomposition). The partial buffer
    // is capped at ~64 MB for any batch size: images are processed in
    // groups, and each group's reduction continues the same float
    // left fold into dW, so the grouping moves no bit either.
    const int64_t kcrs = g.k * crs;
    constexpr int64_t kMaxPartialBytes = 64 << 20;
    const int64_t group = std::min(
        n, std::max<int64_t>(
               1, kMaxPartialBytes /
                      (kcrs * static_cast<int64_t>(sizeof(float)))));
    std::unique_ptr<float[]> dw_part(
        new float[static_cast<size_t>(group * kcrs)]);
    std::unique_ptr<float[]> db_part(
        db ? new float[static_cast<size_t>(group * g.k)] : nullptr);

    const float *px = x.data();
    const float *pdy = dy.data();
    const float *pwt = wt.get();
    float *pdx = dx.data();
    float *pdw_part = dw_part.get();
    float *pdb_part = db_part.get();
    float *pdw = dw->data();
    float *pdb = db ? db->data() : nullptr;

    ThreadPool &pool = ThreadPool::global();
    const bool batch_parallel = useBatchParallel(n, pool);
    const int64_t chw = g.c * g.h * g.w;

    for (int64_t base = 0; base < n; base += group) {
        const int64_t hi = std::min(n, base + group);

        // Images [n0, n1) of this group, in one private workspace laid
        // out col | dyt | dcol. An image's partial slice is its index
        // within the group.
        auto backwardImages = [&](int64_t n0, int64_t n1) {
            std::unique_ptr<float[]> ws(new float[static_cast<size_t>(
                2 * crs * pq + g.k * pq)]);
            float *col = ws.get();
            float *dyt = col + crs * pq;
            float *dcol = dyt + g.k * pq;
            for (int64_t in = n0; in < n1; ++in) {
                const int64_t slot = in - base;
                const float *dyn = pdy + in * g.k * pq;

                // Weight-update pass: partial dW_n^T = col(X_n) * dY_n^T,
                // [CRS, K]. Each element folds the same products over
                // pq in the same order as dY_n * col(X_n)^T would, and
                // a*b + c is symmetric in a and b, so the bits match;
                // only the K x PQ dY_n is transposed, not col.
                im2col(px + in * chw, g, col);
                transpose(dyn, g.k, pq, dyt);
                gemm(crs, g.k, pq, col, pq, dyt, g.k,
                     pdw_part + slot * kcrs, g.k, /*accumulate=*/false,
                     &pool);

                // Backward (data) pass: dX_n = col2im(W^T * dY_n).
                gemm(crs, pq, g.k, pwt, g.k, dyn, pq, dcol, pq,
                     /*accumulate=*/false, &pool);
                col2im(dcol, g, pdx + in * chw);

                if (pdb_part) {
                    for (int64_t ok = 0; ok < g.k; ++ok) {
                        const float *row = dyn + ok * pq;
                        float acc = 0.0f;
                        for (int64_t j = 0; j < pq; ++j)
                            acc += row[j];
                        pdb_part[slot * g.k + ok] = acc;
                    }
                }
            }
        };
        if (batch_parallel)
            pool.parallelFor(base, hi, backwardImages);
        else
            backwardImages(base, hi);

        // Ordered reduction: every dW element starts from its dW value
        // and adds this group's per-image partials in image order.
        // Parallel over elements (disjoint outputs), never over images
        // — that is what keeps the result bitwise identical for any
        // pool size. A partial is [CRS, K], so each task gathers its
        // taps' dW into that layout, adds the partials with unit
        // stride, and scatters the sums back.
        const int64_t gn = hi - base;
        pool.parallelFor(0, crs, [&](int64_t e0, int64_t e1) {
            const int64_t len = (e1 - e0) * g.k;
            std::unique_ptr<float[]> acc(new float[static_cast<size_t>(len)]);
            for (int64_t e = e0; e < e1; ++e) {
                for (int64_t ok = 0; ok < g.k; ++ok)
                    acc[(e - e0) * g.k + ok] = pdw[ok * crs + e];
            }
            for (int64_t s = 0; s < gn; ++s) {
                const float *part = pdw_part + s * kcrs + e0 * g.k;
                for (int64_t t = 0; t < len; ++t)
                    acc[t] += part[t];
            }
            for (int64_t e = e0; e < e1; ++e) {
                for (int64_t ok = 0; ok < g.k; ++ok)
                    pdw[ok * crs + e] = acc[(e - e0) * g.k + ok];
            }
        });
        if (pdb) {
            for (int64_t ok = 0; ok < g.k; ++ok) {
                float acc = pdb[ok];
                for (int64_t s = 0; s < gn; ++s)
                    acc += pdb_part[s * g.k + ok];
                pdb[ok] = acc;
            }
        }
    }
    return dx;
}

} // namespace kernels
} // namespace procrustes
