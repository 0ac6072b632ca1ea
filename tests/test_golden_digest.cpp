/**
 * @file
 * Golden digests: absolute pins on the bits the library computes.
 *
 * The cross-check and differential suites compare the engine with the
 * reference executor, but both share the same layer kernels, so a
 * kernel change that alters both the same way passes every one of
 * them. This suite pins FNV-1a hashes of the engine embeddings, the
 * reference embeddings, the prediction bits and total_cycles for the
 * six paper models plus GCN-16, on fixed MolHIV and HEP samples, in
 * fp32 and under fixed-point emulation. The values were captured
 * before the kernels were rewritten input-major; any kernel, layout or
 * build-flag change that moves a single bit fails here.
 *
 * To re-capture after an intentional numeric change (which must be
 * explained in CHANGES.md), run the binary and copy the "actual"
 * values from the failure messages.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cctype>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/engine.h"
#include "datasets/dataset.h"

namespace flowgnn {
namespace {

/** FNV-1a over a byte range, continuing from `h`. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t
fnv1a(std::uint64_t h, const Matrix &m)
{
    const std::uint64_t shape[2] = {m.rows(), m.cols()};
    h = fnv1a(h, shape, sizeof(shape));
    return fnv1a(h, m.data(), m.size() * sizeof(float));
}

struct Digest {
    std::uint64_t engine = kFnvBasis;
    std::uint64_t reference = kFnvBasis;
    std::uint64_t prediction = kFnvBasis;
    std::uint64_t cycles = kFnvBasis;

    bool operator==(const Digest &) const = default;
};

void
PrintTo(const Digest &d, std::ostream *os)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{0x%016llxull, 0x%016llxull, 0x%016llxull, "
                  "0x%016llxull}",
                  static_cast<unsigned long long>(d.engine),
                  static_cast<unsigned long long>(d.reference),
                  static_cast<unsigned long long>(d.prediction),
                  static_cast<unsigned long long>(d.cycles));
    *os << buf;
}

struct GoldenCase {
    ModelKind model;
    DatasetKind dataset;
    bool fixed_point;
    Digest expected;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << model_name(c.model) << " / " << dataset_spec(c.dataset).name
        << (c.fixed_point ? " / fixed" : " / float");
}

/** Samples per dataset folded into one digest. */
constexpr std::size_t kSamples = 3;

Digest
compute(ModelKind kind, DatasetKind dataset, bool fixed_point)
{
    const DatasetSpec &spec = dataset_spec(dataset);
    Model model = make_model(kind, spec.node_dim, spec.edge_dim);
    Engine engine(model, EngineConfig{});
    RunOptions opts;
    opts.emulate_fixed_point = fixed_point;
    RunWorkspace ws;
    Digest d;
    for (std::size_t i = 0; i < kSamples; ++i) {
        GraphSample sample = make_sample(dataset, i);
        RunResult r = engine.run(sample, opts, ws);
        GraphSample prepared = model.prepare(sample);
        Matrix ref = model.reference_embeddings(prepared);
        float ref_pred =
            model.head().forward(
                model.global_pool(ref, prepared.pool_nodes()))[0];
        d.engine = fnv1a(d.engine, r.embeddings);
        d.reference = fnv1a(d.reference, ref);
        d.prediction = fnv1a(d.prediction, &r.prediction, sizeof(float));
        d.prediction = fnv1a(d.prediction, &ref_pred, sizeof(float));
        d.cycles = fnv1a(d.cycles, &r.stats.total_cycles,
                         sizeof(r.stats.total_cycles));
    }
    return d;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenDigestTest, BitsMatchPinnedDigest)
{
    const GoldenCase &c = GetParam();
    // Fields: {engine embeddings, reference embeddings, engine and
    // reference prediction bits, total_cycles}.
    EXPECT_EQ(compute(c.model, c.dataset, c.fixed_point), c.expected);
}

constexpr DatasetKind kMol = DatasetKind::kMolHiv;
constexpr DatasetKind kHep = DatasetKind::kHep;

const GoldenCase kGolden[] = {
    {ModelKind::kGin,   kMol, false,
     {0xb83239a4458a0af3ull, 0x75fcc6aa8df83a3dull,
      0x3966df88283513dbull, 0x7be445c6bdd47b40ull}},
    {ModelKind::kGin,   kMol, true,
     {0x315eafb722a1bed5ull, 0x75fcc6aa8df83a3dull,
      0x37bda77d05b0105eull, 0x7be445c6bdd47b40ull}},
    {ModelKind::kGin,   kHep, false,
     {0xe81786ae0e5dc085ull, 0x3234e0a2ed815586ull,
      0xe9984357dee23affull, 0x82c981edf06d91b3ull}},
    {ModelKind::kGin,   kHep, true,
     {0xdb74b43f5c329b76ull, 0x3234e0a2ed815586ull,
      0x0b6b33e8f1d5c11dull, 0x82c981edf06d91b3ull}},
    {ModelKind::kGinVn, kMol, false,
     {0x17541475c4a17a66ull, 0xf9017db2af12f6f7ull,
      0xf70e725370a4450dull, 0x0017730a91c244b6ull}},
    {ModelKind::kGinVn, kMol, true,
     {0x6718ca9b4a2b12daull, 0xf9017db2af12f6f7ull,
      0x4c68defd578000efull, 0x0017730a91c244b6ull}},
    {ModelKind::kGinVn, kHep, false,
     {0x6fd6657031f7c681ull, 0x6fd6657031f7c681ull,
      0x6c21f5d285417fe9ull, 0x18c69389cd6a7eb7ull}},
    {ModelKind::kGinVn, kHep, true,
     {0xee79ea135c7f56feull, 0x6fd6657031f7c681ull,
      0x90571da1ea762669ull, 0x18c69389cd6a7eb7ull}},
    {ModelKind::kGcn,   kMol, false,
     {0xf4e34b0b98228e20ull, 0xc0176e8924e58884ull,
      0x7bc72c3b4a161169ull, 0xd86bf556fb022e50ull}},
    {ModelKind::kGcn,   kMol, true,
     {0x7158d08b58c490a9ull, 0xc0176e8924e58884ull,
      0x7982179186d9c7aeull, 0xd86bf556fb022e50ull}},
    {ModelKind::kGcn,   kHep, false,
     {0x1d9fb8a6bb287723ull, 0x9acec5cc8ec5105bull,
      0x97ec2e7c82a58fd5ull, 0x2f32d8a72f682ca6ull}},
    {ModelKind::kGcn,   kHep, true,
     {0x74fa6fb9f8330210ull, 0x9acec5cc8ec5105bull,
      0x510bef11d656aa78ull, 0x2f32d8a72f682ca6ull}},
    {ModelKind::kGat,   kMol, false,
     {0xc36c334b63532009ull, 0xc36c334b63532009ull,
      0x3a661cdcfbee7c05ull, 0x4eed82f5ea9df166ull}},
    {ModelKind::kGat,   kMol, true,
     {0x618188b62abee0d1ull, 0xc36c334b63532009ull,
      0xdc6ac6ce2aad12c6ull, 0x4eed82f5ea9df166ull}},
    {ModelKind::kGat,   kHep, false,
     {0x2b53090fc9f5eba6ull, 0x2b53090fc9f5eba6ull,
      0x9c4b5b1515177761ull, 0x2152f51aa5758b2aull}},
    {ModelKind::kGat,   kHep, true,
     {0x136b6827559b747cull, 0x2b53090fc9f5eba6ull,
      0x4016d57eac937464ull, 0x2152f51aa5758b2aull}},
    {ModelKind::kPna,   kMol, false,
     {0x8aa86c68615771e8ull, 0x63dd5d903af7248bull,
      0x641f5814b2ada810ull, 0xf66de9fa6e84b904ull}},
    {ModelKind::kPna,   kMol, true,
     {0xb643c9b801a6e33bull, 0x63dd5d903af7248bull,
      0xd32d0d326cb8b12aull, 0xf66de9fa6e84b904ull}},
    {ModelKind::kPna,   kHep, false,
     {0x95f178a20c6922d4ull, 0xfa8b6a91d10c9682ull,
      0x670a947b15552002ull, 0x8a4404a07cadb740ull}},
    {ModelKind::kPna,   kHep, true,
     {0x3bdbe071f9ae0fe3ull, 0xfa8b6a91d10c9682ull,
      0xcd33fa92db2baaf2ull, 0x8a4404a07cadb740ull}},
    {ModelKind::kDgn,   kMol, false,
     {0x37714bed7d8097c3ull, 0x3873484ae94aa922ull,
      0xca5bef605de611e9ull, 0x58c5fb36586293a3ull}},
    {ModelKind::kDgn,   kMol, true,
     {0x0b690d0c8ac2a2edull, 0x3873484ae94aa922ull,
      0xfe6b1bc6c36b0348ull, 0x58c5fb36586293a3ull}},
    {ModelKind::kDgn,   kHep, false,
     {0x4be5d99527c4d04dull, 0x520ae3a5916a44a6ull,
      0xd1b061c76a649a51ull, 0x073de999e13319ccull}},
    {ModelKind::kDgn,   kHep, true,
     {0x8cbfd83cf4a53f7aull, 0x520ae3a5916a44a6ull,
      0xeb04c8676ec8340cull, 0x073de999e13319ccull}},
    {ModelKind::kGcn16, kMol, false,
     {0x4e4ad7336350039eull, 0x7b1d0d6f56c6cf9dull,
      0x5a3eb0191cfc343dull, 0xc1e8a94e2b424860ull}},
    {ModelKind::kGcn16, kMol, true,
     {0x05df36c5063bc3d9ull, 0x7b1d0d6f56c6cf9dull,
      0x4a0be643947d9890ull, 0xc1e8a94e2b424860ull}},
    {ModelKind::kGcn16, kHep, false,
     {0x2f7b6869457971dfull, 0x8fdd5f420c9c1103ull,
      0x9836d1762a49bfb0ull, 0x6e20fd6a3228ebf9ull}},
    {ModelKind::kGcn16, kHep, true,
     {0xcd9e1bb0d4c7786cull, 0x8fdd5f420c9c1103ull,
      0xa3f29259be699590ull, 0x6e20fd6a3228ebf9ull}},
};

std::string
case_name(const ::testing::TestParamInfo<GoldenCase> &info)
{
    std::string name;
    for (char ch : std::string(model_name(info.param.model)))
        if (std::isalnum(static_cast<unsigned char>(ch)))
            name += ch;
    name += info.param.dataset == kMol ? "_MolHiv" : "_Hep";
    name += info.param.fixed_point ? "_Fixed" : "_Float";
    return name;
}

INSTANTIATE_TEST_SUITE_P(PaperModels, GoldenDigestTest,
                         ::testing::ValuesIn(kGolden), case_name);

} // namespace
} // namespace flowgnn
