// Artifact format battery (`ctest -L zoo`): the mmap-able snapshot
// artifact (artifact/artifact.h) must (a) round-trip a frozen model with
// bitwise-identical estimates and zero repacks, (b) reject every corrupted
// input — truncations at all section boundaries, single-bit flips, wrong
// magic/version/kind, oversized section lengths, zero-length files, torn
// writes — with a clean ArtifactStatus, never a crash or abort, and (c)
// stay byte-stable against the committed golden files under tests/golden/
// (load golden -> resave reproduces it bit for bit, and regenerating the
// recipe model reproduces it too). Failed loads must leave the out-param
// and any ModelZoo registry state untouched. Runs under ASan/UBSan in CI.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/format.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "data/table.h"
#include "gtest/gtest.h"
#include "query/query.h"
#include "query/workload.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/model_zoo.h"
#include "tensor/packed_weights.h"

namespace duet {
namespace {

using artifact::ArtifactLoadOptions;
using artifact::ArtifactStatus;
using artifact::LoadArtifact;
using artifact::WriteArtifact;
using query::Query;

data::Table SmallTable() { return data::CensusLike(400, 17); }

core::DuetModelOptions SmallModelOptions() {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {16, 16};
  opt.residual = true;
  return opt;
}

std::vector<Query> MakeQueries(const data::Table& table, int n, uint64_t seed = 31) {
  query::WorkloadSpec spec;
  spec.seed = seed;
  query::WorkloadGenerator gen(table, spec);
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queries.push_back(gen.GenerateQuery(rng));
  return queries;
}

std::string TempPath(const std::string& name) {
  return "/tmp/duet_artifact_" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ASSERT_TRUE(out.good());
}

std::shared_ptr<const artifact::ArtifactModel> LoadOk(const std::string& path) {
  std::shared_ptr<const artifact::ArtifactModel> model;
  const ArtifactStatus st = LoadArtifact(path, ArtifactLoadOptions{}, &model);
  EXPECT_TRUE(st.ok) << st.error;
  EXPECT_NE(model, nullptr);
  return model;
}

// ---- round trip: bitwise identity, zero repacks, all four backends ----

class ArtifactRoundTripTest : public ::testing::TestWithParam<tensor::WeightBackend> {};

TEST_P(ArtifactRoundTripTest, BitwiseIdenticalEstimatesZeroRepacks) {
  const tensor::WeightBackend backend = GetParam();
  const data::Table table = SmallTable();
  core::DuetModel model(table, SmallModelOptions());
  model.SetInferenceBackend(backend);

  const std::vector<Query> queries = MakeQueries(table, 96);
  const std::vector<double> expected = model.EstimateSelectivityBatch(queries);

  const std::string path = TempPath("roundtrip.duet");
  const ArtifactStatus wst = WriteArtifact(path, model, backend);
  ASSERT_TRUE(wst.ok) << wst.error;

  // Zero-repack contract: loading and serving from the artifact must never
  // call tensor::PackWeights — every weight array is a view into the map.
  const uint64_t packs_before = tensor::PackWeightsCalls();
  const std::shared_ptr<const artifact::ArtifactModel> loaded = LoadOk(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->backend(), backend);
  EXPECT_EQ(loaded->source_rows(), static_cast<uint64_t>(table.num_rows()));
  EXPECT_NE(loaded->fingerprint(), 0u);
  EXPECT_EQ(loaded->table().num_columns(), table.num_columns());
  EXPECT_EQ(loaded->table().num_rows(), 0) << "artifact tables are schema-only";
  EXPECT_GT(loaded->plan().bytes(), 0u);
  EXPECT_GT(loaded->mapped_bytes(), 0u);

  const std::vector<double> actual = loaded->EstimateSelectivityBatch(queries);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i << " drifted after reload";
  }
  // Scalar path too (separate code path: no chunking, single-row encode).
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(loaded->EstimateSelectivity(queries[i]), model.EstimateSelectivity(queries[i]));
  }
  // The estimator adapter serving dispatches use.
  const std::vector<double> via_adapter = loaded->estimator().EstimateSelectivityBatch(queries);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(via_adapter[i], expected[i]);

  EXPECT_EQ(tensor::PackWeightsCalls(), packs_before)
      << "artifact load/serve repacked weights";
  ::unlink(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ArtifactRoundTripTest,
                         ::testing::Values(tensor::WeightBackend::kDenseF32,
                                           tensor::WeightBackend::kCsrF32,
                                           tensor::WeightBackend::kInt8,
                                           tensor::WeightBackend::kInt4),
                         [](const ::testing::TestParamInfo<tensor::WeightBackend>& info) {
                           return tensor::WeightBackendName(info.param);
                         });

// ---- publish-path serialization: registry -> artifact -> same bits ----

TEST(ArtifactTest, RegistrySaveCurrentArtifactServesRegistryBits) {
  const data::Table table = SmallTable();
  serve::RegistryOptions ropt;
  ropt.backend = tensor::WeightBackend::kCsrF32;
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(table, SmallModelOptions()), ropt);

  const std::vector<Query> queries = MakeQueries(table, 64, 77);
  const std::vector<double> expected =
      registry.Current()->estimator().EstimateSelectivityBatch(queries);

  const std::string path = TempPath("registry.duet");
  const ArtifactStatus st = registry.SaveCurrentArtifact(path);
  ASSERT_TRUE(st.ok) << st.error;
  const std::shared_ptr<const artifact::ArtifactModel> loaded = LoadOk(path);
  ASSERT_NE(loaded, nullptr);
  const std::vector<double> actual = loaded->EstimateSelectivityBatch(queries);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
  ::unlink(path.c_str());
}

// ---- corruption battery ------------------------------------------------

/// Fixture holding one good artifact's bytes plus its parsed section index
/// and baseline estimates, so every corruption case can mutate a copy and
/// (when a mutation is harmless, e.g. in alignment padding) prove the
/// loaded model still serves the exact baseline bits.
class ArtifactCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = SmallTable();
    model_ = std::make_unique<core::DuetModel>(table_, SmallModelOptions());
    model_->SetInferenceBackend(tensor::WeightBackend::kCsrF32);
    queries_ = MakeQueries(table_, 24);
    baseline_ = model_->EstimateSelectivityBatch(queries_);
    good_path_ = TempPath("corrupt_good.duet");
    const ArtifactStatus st =
        WriteArtifact(good_path_, *model_, tensor::WeightBackend::kCsrF32);
    ASSERT_TRUE(st.ok) << st.error;
    bytes_ = ReadFileBytes(good_path_);
    ASSERT_FALSE(bytes_.empty());
    const ArtifactStatus ist = artifact::IndexArtifact(
        bytes_.data(), bytes_.size(), artifact::kDuetArtifactKind, true, &index_);
    ASSERT_TRUE(ist.ok) << ist.error;
    ASSERT_GE(index_.sections.size(), 3u);  // meta + plan + >= 1 pack
    // A pre-loaded sentinel: failed loads must leave *out untouched.
    sentinel_ = LoadOk(good_path_);
    ASSERT_NE(sentinel_, nullptr);
    scratch_path_ = TempPath("corrupt_case.duet");
  }

  void TearDown() override {
    ::unlink(good_path_.c_str());
    ::unlink(scratch_path_.c_str());
  }

  /// Writes `mutated` to the scratch path and asserts LoadArtifact fails
  /// cleanly, leaving the out-param untouched. Returns the load status so
  /// callers can check the rejection reason.
  ArtifactStatus ExpectRejected(const std::string& mutated, const std::string& what) {
    WriteFileBytes(scratch_path_, mutated);
    std::shared_ptr<const artifact::ArtifactModel> out = sentinel_;
    const ArtifactStatus st = LoadArtifact(scratch_path_, ArtifactLoadOptions{}, &out);
    EXPECT_FALSE(st.ok) << what << ": corrupted artifact loaded successfully";
    EXPECT_FALSE(st.error.empty()) << what;
    EXPECT_EQ(out, sentinel_) << what << ": failed load touched the out-param";
    return st;
  }

  /// Header layout constants (format.cc Finish): the fixed prefix the
  /// checksum-patching cases below poke at.
  uint64_t HeaderBytes() const {
    return 4 + 4 + (8 + std::strlen(artifact::kDuetArtifactKind)) + 8 + 8 + 4 + 4 + 8 + 8 + 8;
  }
  uint64_t TableOffset() const {
    return (HeaderBytes() + artifact::kArtifactAlign - 1) & ~(artifact::kArtifactAlign - 1);
  }
  uint64_t TableBytes() const { return index_.sections.size() * artifact::kSectionEntryBytes; }

  /// Recomputes the table checksum and header checksum after a deliberate
  /// table mutation, so the mutated entry (not a checksum mismatch) is what
  /// the loader has to catch.
  void ResealChecksums(std::string* bytes) const {
    const uint64_t table_checksum =
        Fnv1a64(bytes->data() + TableOffset(), static_cast<size_t>(TableBytes()));
    const uint64_t checksum_field = HeaderBytes() - 16;  // table checksum slot
    std::memcpy(&(*bytes)[checksum_field], &table_checksum, 8);
    const uint64_t header_checksum = Fnv1a64(bytes->data(), static_cast<size_t>(HeaderBytes() - 8));
    std::memcpy(&(*bytes)[HeaderBytes() - 8], &header_checksum, 8);
  }

  /// Overwrites the u32 at absolute offset `at` inside section `sec` and
  /// recomputes that section's checksum in its table entry, so only the
  /// field's meaning (not a checksum) can reject the file. Callers follow
  /// up with ResealChecksums for the table and header.
  void PatchSectionU32(std::string* bytes, const artifact::ArtifactIndex& index, size_t sec,
                       uint64_t at, uint32_t value) const {
    const artifact::SectionEntry& e = index.sections[sec];
    ASSERT_GE(at, e.offset);
    ASSERT_LE(at + 4, e.offset + e.size);
    std::memcpy(&(*bytes)[at], &value, 4);
    const uint64_t checksum = Fnv1a64(bytes->data() + e.offset, static_cast<size_t>(e.size));
    const uint64_t checksum_at = TableOffset() + sec * artifact::kSectionEntryBytes + 24;
    std::memcpy(&(*bytes)[checksum_at], &checksum, 8);
  }

  /// Writes the fixture model as an int8 artifact and returns its bytes and
  /// index (same section count as the CSR file, so ResealChecksums fits).
  void Int8Artifact(std::string* bytes, artifact::ArtifactIndex* index) const {
    const std::string path = TempPath("int8_source.duet");
    const ArtifactStatus st = WriteArtifact(path, *model_, tensor::WeightBackend::kInt8);
    ASSERT_TRUE(st.ok) << st.error;
    *bytes = ReadFileBytes(path);
    ::unlink(path.c_str());
    const ArtifactStatus ist = artifact::IndexArtifact(
        bytes->data(), bytes->size(), artifact::kDuetArtifactKind, true, index);
    ASSERT_TRUE(ist.ok) << ist.error;
    ASSERT_EQ(index->sections.size(), index_.sections.size());
  }

  data::Table table_;
  std::unique_ptr<core::DuetModel> model_;
  std::vector<Query> queries_;
  std::vector<double> baseline_;
  std::string good_path_;
  std::string scratch_path_;
  std::string bytes_;
  artifact::ArtifactIndex index_;
  std::shared_ptr<const artifact::ArtifactModel> sentinel_;
};

TEST_F(ArtifactCorruptionTest, ZeroLengthAndSubHeaderFilesRejected) {
  ExpectRejected(std::string(), "zero-length file");
  ExpectRejected(std::string("D", 1), "one-byte file");
  ExpectRejected(bytes_.substr(0, 7), "sub-magic prefix");
  ExpectRejected(bytes_.substr(0, HeaderBytes() - 1), "header minus one byte");
}

TEST_F(ArtifactCorruptionTest, WrongMagicVersionKindRejected) {
  {
    std::string m = bytes_;
    m[0] = 'X';
    ExpectRejected(m, "bad magic");
  }
  {
    std::string m = bytes_;
    const uint32_t bad_version = 999;
    std::memcpy(&m[4], &bad_version, 4);
    ExpectRejected(m, "unsupported version");
  }
  {
    // A structurally valid container of the wrong kind: framing passes, the
    // model loader must still refuse it.
    artifact::ArtifactFileWriter writer;
    writer.AddSection(artifact::SectionKind::kMeta, 0, "not a duet model");
    const ArtifactStatus st = writer.Finish(scratch_path_, "duet-other", 42);
    ASSERT_TRUE(st.ok) << st.error;
    std::shared_ptr<const artifact::ArtifactModel> out = sentinel_;
    const ArtifactStatus lst = LoadArtifact(scratch_path_, ArtifactLoadOptions{}, &out);
    EXPECT_FALSE(lst.ok);
    EXPECT_NE(lst.error.find("kind"), std::string::npos) << lst.error;
    EXPECT_EQ(out, sentinel_);
  }
}

TEST_F(ArtifactCorruptionTest, TruncationAtEverySectionBoundaryRejected) {
  std::set<uint64_t> lengths = {0, 1, 8, HeaderBytes() - 1, HeaderBytes(), TableOffset(),
                                TableOffset() + TableBytes(), bytes_.size() - 1};
  for (const artifact::SectionEntry& sec : index_.sections) {
    lengths.insert(sec.offset);           // cut exactly at the section start
    lengths.insert(sec.offset + 1);       // one byte into the payload
    lengths.insert(sec.offset + sec.size);  // cut at the payload end
    if (sec.size > 1) lengths.insert(sec.offset + sec.size - 1);
  }
  for (const uint64_t len : lengths) {
    if (len >= bytes_.size()) continue;
    ExpectRejected(bytes_.substr(0, static_cast<size_t>(len)),
                   "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST_F(ArtifactCorruptionTest, SingleBitFlipsDetectedOrProvablyHarmless) {
  // Flip one bit at a time: exhaustively over the header and the section
  // table, strided through the payloads. Every flip must either be rejected
  // cleanly or — when it lands in bytes no checksum covers (alignment
  // padding) — leave the loaded model serving the exact baseline bits.
  std::vector<uint64_t> positions;
  for (uint64_t i = 0; i < HeaderBytes(); ++i) positions.push_back(i);
  for (uint64_t i = TableOffset(); i < TableOffset() + TableBytes(); i += 3) positions.push_back(i);
  for (uint64_t i = TableOffset() + TableBytes(); i < bytes_.size(); i += 251) positions.push_back(i);
  positions.push_back(bytes_.size() - 1);

  int detected = 0, harmless = 0;
  for (const uint64_t pos : positions) {
    std::string m = bytes_;
    m[static_cast<size_t>(pos)] =
        static_cast<char>(m[static_cast<size_t>(pos)] ^ (1 << (pos % 8)));
    WriteFileBytes(scratch_path_, m);
    std::shared_ptr<const artifact::ArtifactModel> out;
    const ArtifactStatus st = LoadArtifact(scratch_path_, ArtifactLoadOptions{}, &out);
    if (!st.ok) {
      EXPECT_EQ(out, nullptr) << "failed load touched the out-param (byte " << pos << ")";
      ++detected;
      continue;
    }
    ASSERT_NE(out, nullptr);
    const std::vector<double> got = out->EstimateSelectivityBatch(queries_);
    for (size_t q = 0; q < baseline_.size(); ++q) {
      ASSERT_EQ(got[q], baseline_[q])
          << "bit flip at byte " << pos << " silently changed estimates";
    }
    ++harmless;
  }
  // The container is mostly sealed bytes: the battery must actually have
  // exercised the reject paths, and every header byte flip must be caught
  // (the header has no padding inside the checksummed prefix).
  EXPECT_GT(detected, static_cast<int>(HeaderBytes()) / 2);
  SCOPED_TRACE("detected=" + std::to_string(detected) + " harmless=" + std::to_string(harmless));
}

TEST_F(ArtifactCorruptionTest, OversizedSectionLengthRejected) {
  // Without resealing, the flip is caught by the table checksum.
  {
    std::string m = bytes_;
    const uint64_t entry0_size_at = TableOffset() + 16;
    uint64_t size = 0;
    std::memcpy(&size, &m[entry0_size_at], 8);
    size += uint64_t{1} << 20;
    std::memcpy(&m[entry0_size_at], &size, 8);
    ExpectRejected(m, "oversized section, stale checksums");
  }
  // With table + header checksums resealed, the bounds check itself must
  // reject the oversized length (and the wrap-around variant).
  for (const uint64_t inflation : {uint64_t{1} << 20, ~uint64_t{0} / 2}) {
    std::string m = bytes_;
    const uint64_t entry0_size_at = TableOffset() + 16;
    uint64_t size = 0;
    std::memcpy(&size, &m[entry0_size_at], 8);
    size += inflation;
    std::memcpy(&m[entry0_size_at], &size, 8);
    ResealChecksums(&m);
    ExpectRejected(m, "oversized section, resealed checksums");
  }
  // Overlap: aim section 1 back at section 0's offset (monotonicity check).
  {
    std::string m = bytes_;
    const uint64_t entry1_offset_at = TableOffset() + artifact::kSectionEntryBytes + 8;
    const uint64_t overlap = index_.sections[0].offset;
    std::memcpy(&m[entry1_offset_at], &overlap, 8);
    ResealChecksums(&m);
    ExpectRejected(m, "overlapping sections");
  }
}

TEST_F(ArtifactCorruptionTest, TornWriteRejectedAndZooStaysUntouched) {
  if (!serve::FaultInjector::Enabled()) {
    GTEST_SKIP() << "built with -DDUET_FAULT_INJECTION=OFF";
  }
  serve::FaultInjector::DisarmAll();
  const std::string path = TempPath("torn.duet");
  serve::FaultInjector::Arm(serve::FaultPoint::kCheckpointWrite, 1);
  const ArtifactStatus wst = WriteArtifact(path, *model_, tensor::WeightBackend::kCsrF32);
  serve::FaultInjector::DisarmAll();
  ASSERT_TRUE(wst.ok) << wst.error;  // the torn write itself "succeeds"
  EXPECT_LT(ReadFileBytes(path).size(), bytes_.size());

  // The zoo must reject the torn artifact without mutating registry state...
  serve::ModelZoo zoo;
  zoo.Register("torn", path);
  serve::ZooPin pin;
  const ArtifactStatus ast = zoo.TryAcquire("torn", &pin);
  EXPECT_FALSE(ast.ok);
  EXPECT_EQ(pin, nullptr);
  EXPECT_EQ(zoo.ResidentModels(), 0u);
  EXPECT_EQ(zoo.ResidentBytes(), 0u);
  EXPECT_EQ(zoo.stats().loads, 0u);

  // ...and recover transparently once a good artifact lands at the path.
  const ArtifactStatus rewrite = WriteArtifact(path, *model_, tensor::WeightBackend::kCsrF32);
  ASSERT_TRUE(rewrite.ok) << rewrite.error;
  const ArtifactStatus ok = zoo.TryAcquire("torn", &pin);
  ASSERT_TRUE(ok.ok) << ok.error;
  ASSERT_NE(pin, nullptr);
  const std::vector<double> got = pin->model().EstimateSelectivityBatch(queries_);
  for (size_t q = 0; q < baseline_.size(); ++q) EXPECT_EQ(got[q], baseline_[q]);
  pin.reset();
  ::unlink(path.c_str());
}

// ---- retired backend tag 3 (f16) and its reserved pack entry ----------

TEST_F(ArtifactCorruptionTest, RetiredBackendTagRejectedAndZooStaysUntouched) {
  std::string int8_bytes;
  artifact::ArtifactIndex index;
  ASSERT_NO_FATAL_FAILURE(Int8Artifact(&int8_bytes, &index));
  constexpr uint32_t kInt8Tag = static_cast<uint32_t>(tensor::WeightBackend::kInt8);
  constexpr uint32_t kRetiredTag = 3;

  // Relabels the int8 file as tag 3 in every pack header and, optionally,
  // in meta (backend is its last field) and plan (its first field), so the
  // file stays self-consistent and checksum-valid: only the tag check can
  // refuse it.
  auto relabel = [&](bool meta_and_plan) {
    std::string m = int8_bytes;
    for (size_t i = 0; i < index.sections.size(); ++i) {
      const artifact::SectionEntry& e = index.sections[i];
      const auto kind = static_cast<artifact::SectionKind>(e.kind);
      if (kind != artifact::SectionKind::kPack && !meta_and_plan) continue;
      const uint64_t at =
          kind == artifact::SectionKind::kMeta ? e.offset + e.size - 4 : e.offset;
      uint32_t old_tag = 0;
      std::memcpy(&old_tag, &m[at], 4);
      EXPECT_EQ(old_tag, kInt8Tag) << "section " << i << " tag not where expected";
      PatchSectionU32(&m, index, i, at, kRetiredTag);
    }
    ResealChecksums(&m);
    return m;
  };

  const ArtifactStatus meta_st = ExpectRejected(relabel(true), "tag 3 in meta, plan and packs");
  EXPECT_NE(meta_st.error.find("retired backend"), std::string::npos) << meta_st.error;
  const ArtifactStatus pack_st = ExpectRejected(relabel(false), "tag 3 in pack headers");
  EXPECT_NE(pack_st.error.find("retired backend"), std::string::npos) << pack_st.error;

  // A zoo serving a good model refuses the relabelled file without touching
  // its resident set, and keeps serving the good model's exact bits.
  WriteFileBytes(scratch_path_, relabel(true));
  serve::ModelZoo zoo;
  zoo.Register("good", good_path_);
  zoo.Register("retired", scratch_path_);
  serve::ZooPin pin;
  ASSERT_TRUE(zoo.TryAcquire("good", &pin).ok);
  pin.reset();
  const uint64_t resident_bytes = zoo.ResidentBytes();
  const ArtifactStatus zst = zoo.TryAcquire("retired", &pin);
  EXPECT_FALSE(zst.ok);
  EXPECT_EQ(pin, nullptr);
  EXPECT_EQ(zoo.ResidentModels(), 1u);
  EXPECT_EQ(zoo.ResidentBytes(), resident_bytes);
  EXPECT_EQ(zoo.stats().loads, 1u);
  ASSERT_TRUE(zoo.TryAcquire("good", &pin).ok);
  const std::vector<double> got = pin->model().EstimateSelectivityBatch(queries_);
  for (size_t q = 0; q < baseline_.size(); ++q) EXPECT_EQ(got[q], baseline_[q]);
}

TEST_F(ArtifactCorruptionTest, ReservedPackEntryRejected) {
  // Pack directory entry 10 held the retired backend's payload; it must stay
  // empty. Point it at pack 0's in-bounds int8 payload (entry 8) so only the
  // reserved-entry check can refuse the file.
  std::string m;
  artifact::ArtifactIndex index;
  ASSERT_NO_FATAL_FAILURE(Int8Artifact(&m, &index));
  size_t pack0 = 0;
  while (static_cast<artifact::SectionKind>(index.sections[pack0].kind) !=
         artifact::SectionKind::kPack) {
    ++pack0;
  }
  const uint64_t dir = index.sections[pack0].offset + 32;  // after the pack header
  uint64_t quantized_count = 0, quantized_offset = 0;
  std::memcpy(&quantized_count, &m[dir + 8 * 16], 8);
  std::memcpy(&quantized_offset, &m[dir + 8 * 16 + 8], 8);
  ASSERT_GT(quantized_count, 0u);
  // count = 1 and offset = the int8 payload's, written as four u32 halves.
  PatchSectionU32(&m, index, pack0, dir + 10 * 16, 1);
  PatchSectionU32(&m, index, pack0, dir + 10 * 16 + 8,
                  static_cast<uint32_t>(quantized_offset));
  PatchSectionU32(&m, index, pack0, dir + 10 * 16 + 12,
                  static_cast<uint32_t>(quantized_offset >> 32));
  ResealChecksums(&m);
  const ArtifactStatus st = ExpectRejected(m, "nonzero reserved pack entry");
  EXPECT_NE(st.error.find("reserved"), std::string::npos) << st.error;
}

// ---- golden files: format stability ------------------------------------

/// The golden recipe: a fully hand-specified table (no generator in the
/// loop) and a tiny fixed-seed model, so the serialized bytes depend only
/// on the format and the deterministic init/compile paths. Changing ANY of
/// them is a format break and must be a conscious, versioned decision.
data::Table GoldenTable() {
  std::vector<data::Column> columns;
  columns.push_back(data::Column::FromCodes(
      "alpha", {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, {1.0, 2.0, 3.0, 5.0}));
  columns.push_back(data::Column::FromCodes(
      "beta", {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1}, {-2.0, -1.0, 0.0, 1.0, 2.0}));
  columns.push_back(data::Column::FromCodes(
      "gamma", {0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2}, {10.0, 20.0, 30.0}));
  return data::Table("golden", std::move(columns));
}

core::DuetModelOptions GoldenModelOptions() {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {8, 8};
  opt.residual = false;
  opt.seed = 1234;
  return opt;
}

std::string GoldenPath(const std::string& name) {
  return std::string(DUET_SOURCE_DIR) + "/tests/golden/" + name;
}

void CheckGoldenStability(tensor::WeightBackend backend, const std::string& golden_name) {
  const data::Table table = GoldenTable();
  core::DuetModel model(table, GoldenModelOptions());
  model.SetInferenceBackend(backend);

  const std::string fresh_path = TempPath("golden_fresh.duet");
  const ArtifactStatus wst = WriteArtifact(fresh_path, model, backend);
  ASSERT_TRUE(wst.ok) << wst.error;
  const std::string fresh = ReadFileBytes(fresh_path);
  ::unlink(fresh_path.c_str());

  const std::string golden_path = GoldenPath(golden_name);
  if (std::getenv("DUET_REGEN_GOLDEN") != nullptr) {
    WriteFileBytes(golden_path, fresh);
  }
  const std::string golden = ReadFileBytes(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path
                               << " (regenerate with DUET_REGEN_GOLDEN=1)";

  // Writer stability: today's writer reproduces the committed bytes.
  ASSERT_EQ(fresh.size(), golden.size()) << "artifact size drifted vs " << golden_name;
  EXPECT_EQ(fresh, golden) << "serialized bytes drifted vs " << golden_name;

  // Loader + round-trip stability: the golden file loads, and resaving the
  // loaded artifact reproduces it bit for bit.
  const std::shared_ptr<const artifact::ArtifactModel> loaded = LoadOk(golden_path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->backend(), backend);
  EXPECT_EQ(loaded->source_rows(), 12u);
  const std::string resaved_path = TempPath("golden_resave.duet");
  const ArtifactStatus rst = artifact::ResaveArtifact(resaved_path, *loaded);
  ASSERT_TRUE(rst.ok) << rst.error;
  EXPECT_EQ(ReadFileBytes(resaved_path), golden) << "resave drifted vs " << golden_name;
  ::unlink(resaved_path.c_str());

  // And the loaded model still serves the in-memory model's exact bits.
  const std::vector<Query> queries = MakeQueries(table, 16, 5);
  const std::vector<double> expected = model.EstimateSelectivityBatch(queries);
  const std::vector<double> actual = loaded->EstimateSelectivityBatch(queries);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
}

TEST(ArtifactGoldenTest, DenseFormatStable) {
  CheckGoldenStability(tensor::WeightBackend::kDenseF32, "artifact_dense_v1.duet");
}

TEST(ArtifactGoldenTest, CsrFormatStable) {
  CheckGoldenStability(tensor::WeightBackend::kCsrF32, "artifact_csr_v1.duet");
}

}  // namespace
}  // namespace duet
