// Persistence battery for the disk-backed corpus (engine/snapshot.h,
// DocumentStore::SaveSnapshot/OpenSnapshot, spill-to-disk residency).
//
// Three pillars, mirroring the crash-consistency contract:
//   1. Round-trip differentials -- a reloaded corpus answers every query
//      byte-identically to the corpus that wrote it, with ZERO re-parses
//      and ZERO index rebuilds (the process-wide Tree counters prove it).
//   2. Corruption injection -- every truncation length, every byte flip,
//      reordered sections, and future format versions come back as typed
//      Status (kDataLoss / kInvalidArgument / kNotFound), never a crash;
//      the suites run under ASan/UBSan in CI.
//   3. Spill-to-disk residency -- cold documents leave RAM under a
//      budget, fault back in transparently, pinned documents never
//      spill, and Remove() of a spilled document leaves no orphaned
//      segment behind.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "engine/snapshot.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"
#include "tree/tree.h"

namespace xpv {
namespace {

// ------------------------------------------------------------- utilities

/// Fresh empty directory under the test tmpdir, unique per call.
std::string MakeTempDir() {
  static int counter = 0;
  std::string path = ::testing::TempDir() + "xpv_snapshot_test_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++);
  EXPECT_EQ(::mkdir(path.c_str(), 0755), 0) << path;
  return path;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// A small fuzzed document: shape rotates over the generator zoo so the
/// battery covers bibliography, restaurant, random, path, and star trees.
Tree FuzzTree(Rng& rng, std::size_t i) {
  switch (i % 5) {
    case 0:
      return BibliographyTree(rng, 2 + rng.Below(4));
    case 1:
      return RestaurantTree(rng, 2 + rng.Below(3), 2);
    case 2: {
      RandomTreeOptions options;
      options.num_nodes = 8 + rng.Below(40);
      return RandomTree(rng, options);
    }
    case 3:
      return PathTree(3 + rng.Below(12));
    default:
      return StarTree(4 + rng.Below(12));
  }
}

const char* kQueryMix[] = {
    "descendant::book/child::author",
    "child::*[descendant::title]",
    "descendant::* except descendant::book",
    "child::* except child::author[following_sibling::title]",
    "descendant::book[child::author]/$x",
    "$x/child::title",
};

/// Byte-identical result equality on the semantic payload (the planner's
/// routing may legitimately differ between a cold and a snapshot-warmed
/// corpus; the answers must not).
void ExpectResultsEqual(const std::vector<engine::QueryResult>& a,
                        const std::vector<engine::QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.code(), b[i].status.code()) << "job " << i;
    EXPECT_EQ(a[i].relation, b[i].relation) << "job " << i;
    EXPECT_EQ(a[i].from_root, b[i].from_root) << "job " << i;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << "job " << i;
    EXPECT_EQ(a[i].boolean, b[i].boolean) << "job " << i;
    EXPECT_EQ(a[i].count, b[i].count) << "job " << i;
  }
}

// ------------------------------------------- segment-level round-trips

TEST(SnapshotSegmentTest, RoundTripPreservesTreeMetaAndWarmAxes) {
  Rng rng(11);
  const std::string dir = MakeTempDir();
  for (std::size_t i = 0; i < 10; ++i) {
    Tree tree = FuzzTree(rng, i);
    AxisCache cache(tree);
    // Warm a couple of axis relations so the segment carries them.
    cache.Matrix(Axis::kChild);
    cache.Matrix(Axis::kDescendant);

    const std::string path = dir + "/" + engine::SegmentFileName(i + 1);
    ASSERT_TRUE(engine::WriteDocumentSegment(path, i + 1,
                                             "doc" + std::to_string(i), tree,
                                             &cache, (i % 2) == 0)
                    .ok());

    auto loaded = engine::LoadDocumentSegment(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const engine::LoadedSegment& seg = loaded.value();
    EXPECT_EQ(seg.meta.document_id, i + 1);
    EXPECT_EQ(seg.meta.name, "doc" + std::to_string(i));
    EXPECT_EQ(seg.meta.interned, (i % 2) == 0);
    EXPECT_EQ(seg.tree, tree);
    EXPECT_GT(seg.mapped_bytes, 0u);

    // Exactly the warmed axes came back, in ascending order, and each
    // decodes to the relation the tree itself defines.
    ASSERT_EQ(seg.axes.size(), 2u);
    EXPECT_EQ(seg.axes[0].first, Axis::kChild);
    EXPECT_EQ(seg.axes[1].first, Axis::kDescendant);
    for (const auto& [axis, matrix] : seg.axes) {
      const IntervalMatrix truth = AxisIntervalMatrix(tree, axis);
      ASSERT_EQ(matrix.size(), truth.size());
      BitVector got, want;
      for (std::size_t row = 0; row < matrix.size(); ++row) {
        matrix.RowInto(row, got);
        truth.RowInto(row, want);
        EXPECT_EQ(got, want) << "axis " << AxisName(axis) << " row " << row;
      }
    }
  }
}

TEST(SnapshotSegmentTest, WriterIsByteDeterministic) {
  Rng rng(12);
  Tree tree = FuzzTree(rng, 0);
  AxisCache cache(tree);
  cache.Matrix(Axis::kChild);
  const std::string dir = MakeTempDir();
  const std::string p1 = dir + "/a.xpvseg";
  const std::string p2 = dir + "/b.xpvseg";
  ASSERT_TRUE(
      engine::WriteDocumentSegment(p1, 7, "n", tree, &cache, false).ok());
  ASSERT_TRUE(
      engine::WriteDocumentSegment(p2, 7, "n", tree, &cache, false).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
}

TEST(SnapshotSegmentTest, AxisMatrixForBackingMatchesFreshCacheBitForBit) {
  Rng rng(13);
  Tree tree = BibliographyTree(rng, 5);
  for (const Axis axis : kAllAxes) {
    // Dense backing must equal what a dense AxisCache builds.
    auto dense = engine::AxisMatrixForBacking(AxisIntervalMatrix(tree, axis),
                                              /*dense=*/true);
    AxisCache fresh(tree, AxisBacking::kDense);
    const BoolMatrix& want = fresh.Matrix(axis);
    ASSERT_EQ(dense->size(), want.size());
    BitVector got_row, want_row;
    for (std::size_t row = 0; row < want.size(); ++row) {
      dense->RowInto(row, got_row);
      want.RowInto(row, want_row);
      EXPECT_EQ(got_row, want_row) << AxisName(axis) << " row " << row;
    }
    EXPECT_NE(dense->AsDense(), nullptr);
    // Interval backing preserves the runs verbatim.
    auto sparse = engine::AxisMatrixForBacking(AxisIntervalMatrix(tree, axis),
                                               /*dense=*/false);
    EXPECT_NE(sparse->AsInterval(), nullptr);
  }
}

TEST(SnapshotManifestTest, RoundTripAndMissingDirectory) {
  const std::string dir = MakeTempDir();
  engine::SnapshotManifest manifest;
  manifest.next_document_id = 42;
  manifest.document_ids = {1, 3, 7, 41};
  ASSERT_TRUE(engine::WriteManifest(dir, manifest).ok());
  auto loaded = engine::LoadManifest(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().next_document_id, 42u);
  EXPECT_EQ(loaded.value().document_ids, manifest.document_ids);

  auto missing = engine::LoadManifest(dir + "/nonexistent");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------- corruption battery

/// Writes one representative segment (meta + tree + axes sections) and
/// returns its bytes.
std::vector<std::uint8_t> GoldenSegmentBytes(const std::string& dir) {
  Rng rng(21);
  Tree tree = BibliographyTree(rng, 3);
  AxisCache cache(tree);
  cache.Matrix(Axis::kChild);
  cache.Matrix(Axis::kParent);
  const std::string path = dir + "/golden.xpvseg";
  EXPECT_TRUE(
      engine::WriteDocumentSegment(path, 9, "golden", tree, &cache, true)
          .ok());
  return ReadFileBytes(path);
}

/// A corrupted load must fail with a *typed* corruption code -- and must
/// not crash, which is what this battery really buys under ASan/UBSan.
void ExpectTypedCorruptionError(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
              status.code() == StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(SnapshotCorruptionTest, EveryTruncationLengthIsTypedError) {
  const std::string dir = MakeTempDir();
  const std::vector<std::uint8_t> golden = GoldenSegmentBytes(dir);
  ASSERT_GT(golden.size(), 28u);
  const std::string victim = dir + "/victim.xpvseg";
  for (std::size_t len = 0; len < golden.size(); ++len) {
    WriteFileBytes(victim, std::vector<std::uint8_t>(golden.begin(),
                                                     golden.begin() + len));
    auto loaded = engine::LoadDocumentSegment(victim);
    ASSERT_FALSE(loaded.ok()) << "truncation at " << len << " accepted";
    ExpectTypedCorruptionError(loaded.status());
  }
  // Trailing garbage is corruption too, not silently ignored slack.
  std::vector<std::uint8_t> padded = golden;
  padded.push_back(0xAB);
  WriteFileBytes(victim, padded);
  ExpectTypedCorruptionError(engine::LoadDocumentSegment(victim).status());
}

TEST(SnapshotCorruptionTest, EveryByteFlipIsTypedError) {
  const std::string dir = MakeTempDir();
  const std::vector<std::uint8_t> golden = GoldenSegmentBytes(dir);
  const std::string victim = dir + "/victim.xpvseg";
  // Every byte of the file sits under some CRC (payload CRCs cover the
  // payloads; the header CRCs cover the headers *including* the payload
  // CRC fields and themselves), so no single-byte flip may load.
  for (std::size_t pos = 0; pos < golden.size(); ++pos) {
    std::vector<std::uint8_t> mutated = golden;
    mutated[pos] ^= 0x01;
    WriteFileBytes(victim, mutated);
    auto loaded = engine::LoadDocumentSegment(victim);
    ASSERT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " accepted";
    ExpectTypedCorruptionError(loaded.status());
  }
}

/// Little-endian field readers for hand-carving segment bytes.
std::uint32_t ReadU32At(const std::vector<std::uint8_t>& b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         (static_cast<std::uint32_t>(b[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(b[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(b[pos + 3]) << 24);
}
std::uint64_t ReadU64At(const std::vector<std::uint8_t>& b, std::size_t pos) {
  return static_cast<std::uint64_t>(ReadU32At(b, pos)) |
         (static_cast<std::uint64_t>(ReadU32At(b, pos + 4)) << 32);
}
void WriteU32At(std::vector<std::uint8_t>& b, std::size_t pos,
                std::uint32_t v) {
  b[pos] = static_cast<std::uint8_t>(v);
  b[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  b[pos + 2] = static_cast<std::uint8_t>(v >> 16);
  b[pos + 3] = static_cast<std::uint8_t>(v >> 24);
}

TEST(SnapshotCorruptionTest, SwappedSectionsAreDataLoss) {
  const std::string dir = MakeTempDir();
  const std::vector<std::uint8_t> golden = GoldenSegmentBytes(dir);
  // Walk the frame structure: header is 28 bytes, each section header is
  // 24 bytes with the payload length at offset +8.
  std::vector<std::pair<std::size_t, std::size_t>> sections;  // (pos, len)
  std::size_t pos = 28;
  while (pos < golden.size()) {
    const std::size_t payload =
        static_cast<std::size_t>(ReadU64At(golden, pos + 8));
    sections.emplace_back(pos, 24 + payload);
    pos += 24 + payload;
  }
  ASSERT_GE(sections.size(), 2u);
  // Swap the first two whole sections (meta <-> tree): framing and CRCs
  // stay individually valid, only the required ascending order breaks.
  std::vector<std::uint8_t> swapped(golden.begin(), golden.begin() + 28);
  auto [p1, l1] = sections[0];
  auto [p2, l2] = sections[1];
  swapped.insert(swapped.end(), golden.begin() + p2, golden.begin() + p2 + l2);
  swapped.insert(swapped.end(), golden.begin() + p1, golden.begin() + p1 + l1);
  for (std::size_t i = 2; i < sections.size(); ++i) {
    auto [p, l] = sections[i];
    swapped.insert(swapped.end(), golden.begin() + p, golden.begin() + p + l);
  }
  ASSERT_EQ(swapped.size(), golden.size());
  const std::string victim = dir + "/victim.xpvseg";
  WriteFileBytes(victim, swapped);
  auto loaded = engine::LoadDocumentSegment(victim);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruptionTest, NewerFormatVersionIsInvalidArgument) {
  const std::string dir = MakeTempDir();
  std::vector<std::uint8_t> bytes = GoldenSegmentBytes(dir);
  // Bump the version field (offset 8) and re-seal the header CRC (offset
  // 24, covering the first 24 bytes) so ONLY the version is wrong.
  WriteU32At(bytes, 8, engine::kSnapshotFormatVersion + 1);
  WriteU32At(bytes, 24, Crc32(bytes.data(), 24));
  const std::string victim = dir + "/victim.xpvseg";
  WriteFileBytes(victim, bytes);
  auto loaded = engine::LoadDocumentSegment(victim);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, MissingSegmentIsNotFound) {
  auto loaded = engine::LoadDocumentSegment(MakeTempDir() + "/absent.xpvseg");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotCorruptionTest, ManifestCorruptionIsTypedError) {
  const std::string dir = MakeTempDir();
  engine::SnapshotManifest manifest;
  manifest.next_document_id = 5;
  manifest.document_ids = {1, 2, 4};
  ASSERT_TRUE(engine::WriteManifest(dir, manifest).ok());
  const std::string path = dir + "/MANIFEST.xpv";
  const std::vector<std::uint8_t> golden = ReadFileBytes(path);
  for (std::size_t len = 0; len < golden.size(); ++len) {
    WriteFileBytes(path, std::vector<std::uint8_t>(golden.begin(),
                                                   golden.begin() + len));
    ExpectTypedCorruptionError(engine::LoadManifest(dir).status());
  }
  for (std::size_t pos = 0; pos < golden.size(); ++pos) {
    std::vector<std::uint8_t> mutated = golden;
    mutated[pos] ^= 0x10;
    WriteFileBytes(path, mutated);
    ExpectTypedCorruptionError(engine::LoadManifest(dir).status());
  }
}

// ----------------------------------------- store-level round-trip tests

TEST(SnapshotStoreTest, ReloadServesByteIdenticalResultsWithZeroRework) {
  Rng rng(31);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const std::string dir = MakeTempDir();
    engine::DocumentStore original({.num_shards = 3});
    std::vector<engine::DocumentId> ids;
    const std::size_t corpus = 5 + seed;
    for (std::size_t i = 0; i < corpus; ++i) {
      ids.push_back(original.Insert(FuzzTree(rng, i + seed),
                                    "d" + std::to_string(i)));
    }
    std::vector<engine::QueryJob> jobs;
    for (std::size_t i = 0; i < 4 * corpus; ++i) {
      engine::QueryJob job;
      job.document = ids[rng.Below(ids.size())];
      job.query = kQueryMix[rng.Below(std::size(kQueryMix))];
      jobs.push_back(std::move(job));
    }
    // Serve once before saving so warm axis relations get persisted.
    engine::QueryService svc_a({.num_threads = 2, .document_store = &original});
    const auto results_a = svc_a.EvaluateBatch(jobs);
    ASSERT_TRUE(original.SaveSnapshot(dir).ok());

    const std::uint64_t parses_before = Tree::GlobalParses();
    const std::uint64_t builds_before = Tree::GlobalIndexBuilds();
    auto reopened = engine::DocumentStore::OpenSnapshot(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    // The tentpole guarantee: reload is decode-only. No term parsing, no
    // BuildIndexes -- the persisted segments carry the indexed trees.
    EXPECT_EQ(Tree::GlobalParses(), parses_before);
    EXPECT_EQ(Tree::GlobalIndexBuilds(), builds_before);

    engine::DocumentStore& reloaded = *reopened.value();
    EXPECT_EQ(reloaded.size(), original.size());
    for (const engine::DocumentId id : ids) {
      auto fetched = reloaded.Fetch(id);
      ASSERT_TRUE(fetched.ok());
      const engine::DocumentPtr& doc = fetched.value();
      EXPECT_EQ(doc->tree(), original.Get(id)->tree()) << "doc " << id;
      EXPECT_EQ(doc->name(), original.Get(id)->name()) << "doc " << id;
      // Whatever axis relations were warm at save time were persisted and
      // reinstalled on reload, not rebuilt (documents the batch never
      // touched legitimately have none).
      auto original_cache = original.AxisCacheFor(id);
      auto cache = reloaded.AxisCacheFor(id);
      ASSERT_NE(original_cache, nullptr);
      ASSERT_NE(cache, nullptr);
      EXPECT_EQ(cache->matrices_installed(),
                original_cache->BuiltAxes().size())
          << "doc " << id;
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      engine::QueryService svc_b(
          {.num_threads = threads, .document_store = &reloaded});
      ExpectResultsEqual(results_a, svc_b.EvaluateBatch(jobs));
    }
  }
}

TEST(SnapshotStoreTest, ReloadedInternedDocumentsStillDeduplicate) {
  Rng rng(41);
  const std::string dir = MakeTempDir();
  Tree tree = BibliographyTree(rng, 4);
  engine::DocumentStore original({.num_shards = 1});
  const engine::DocumentId id = original.Intern(Tree(tree), "shared");
  EXPECT_EQ(original.Intern(Tree(tree)), id);
  ASSERT_TRUE(original.SaveSnapshot(dir).ok());

  auto reopened = engine::DocumentStore::OpenSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The intern key is recomputed from the decoded tree: interning the
  // same tree into the reloaded store dedupes to the persisted id.
  EXPECT_EQ(reopened.value()->Intern(std::move(tree)), id);
  EXPECT_GE(reopened.value()->stats().intern_hits, 1u);
}

TEST(SnapshotStoreTest, OpenOnEmptyDirectoryIsNotFound) {
  auto reopened = engine::DocumentStore::OpenSnapshot(MakeTempDir());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, ManifestNamingMissingSegmentFailsToOpen) {
  const std::string dir = MakeTempDir();
  Rng rng(43);
  engine::DocumentStore store({.num_shards = 1});
  store.Insert(BibliographyTree(rng, 3));
  ASSERT_TRUE(store.SaveSnapshot(dir).ok());
  ASSERT_EQ(::unlink((dir + "/" + engine::SegmentFileName(1)).c_str()), 0);
  auto reopened = engine::DocumentStore::OpenSnapshot(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- spill-to-disk tests

TEST(SpillTest, ColdDocumentsSpillAndFaultBackIn) {
  const std::string dir = MakeTempDir();
  Rng rng(51);
  engine::DocumentStore store({.num_shards = 1,
                               .spill_dir = dir,
                               .max_resident_docs = 2});
  std::vector<std::string> terms;
  std::vector<engine::DocumentId> ids;
  for (std::size_t i = 0; i < 8; ++i) {
    Tree tree = FuzzTree(rng, i);
    terms.push_back(tree.ToTerm());
    ids.push_back(store.Insert(std::move(tree), "s" + std::to_string(i)));
  }
  auto stats = store.stats();
  EXPECT_EQ(stats.documents, 8u);
  EXPECT_LE(stats.resident_docs, 2u);
  EXPECT_GE(stats.spilled_docs, 6u);
  EXPECT_GE(stats.doc_spills, 6u);
  // Spilled segments are on disk; resident bytes only count hot trees.
  EXPECT_TRUE(FileExists(dir + "/" + engine::SegmentFileName(ids[0])));
  EXPECT_GT(stats.resident_doc_bytes, 0u);

  // Fault every document back in (one at a time; the budget holds) and
  // check the decoded tree is the one that was spilled.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto fetched = store.Fetch(ids[i]);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched.value()->tree().ToTerm(), terms[i]) << "doc " << ids[i];
  }
  stats = store.stats();
  EXPECT_GE(stats.doc_reloads, 6u);
  EXPECT_GT(stats.mmap_bytes, 0u);
  // The budget may be exceeded by exactly the document being faulted in,
  // never more.
  EXPECT_LE(stats.resident_docs, 3u);
}

TEST(SpillTest, PinnedDocumentsNeverSpill) {
  const std::string dir = MakeTempDir();
  Rng rng(52);
  engine::DocumentStore store({.num_shards = 1,
                               .spill_dir = dir,
                               .max_resident_docs = 1});
  const engine::DocumentId pinned_id = store.Insert(FuzzTree(rng, 0), "pin");
  auto pinned = store.Fetch(pinned_id);
  ASSERT_TRUE(pinned.ok());
  const engine::DocumentPtr held = pinned.value();  // external pin

  const std::uint64_t reloads_before = store.stats().doc_reloads;
  for (std::size_t i = 0; i < 6; ++i) {
    store.Insert(FuzzTree(rng, i + 1));
  }
  // The pinned document was never spilled: looking it up again needs no
  // disk round-trip and returns the very same object.
  const engine::DocumentPtr again = store.Get(pinned_id);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again.get(), held.get());
  EXPECT_EQ(store.stats().doc_reloads, reloads_before);
}

TEST(SpillTest, QueryLoadOverspillsCorpusStaysCorrectAndBounded) {
  const std::string dir = MakeTempDir();
  Rng rng(53);
  // Corpus is ~4x the residency budget; an unbounded twin provides the
  // ground truth for every answer.
  engine::DocumentStore bounded({.max_hot_caches = 2,
                                 .num_shards = 2,
                                 .spill_dir = dir,
                                 .max_resident_docs = 3});
  engine::DocumentStore unbounded({.num_shards = 2});
  std::vector<engine::DocumentId> ids;
  std::size_t total_tree_bytes = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    Tree tree = FuzzTree(rng, i);
    total_tree_bytes += tree.resident_bytes();
    const engine::DocumentId id = bounded.Insert(Tree(tree));
    ASSERT_EQ(unbounded.Insert(std::move(tree)), id);
    ids.push_back(id);
  }
  std::vector<engine::QueryJob> jobs;
  for (std::size_t i = 0; i < 60; ++i) {
    engine::QueryJob job;
    job.document = ids[rng.Below(ids.size())];
    job.query = kQueryMix[rng.Below(std::size(kQueryMix))];
    jobs.push_back(std::move(job));
  }
  {
    engine::QueryService svc_bounded(
        {.num_threads = 2, .document_store = &bounded});
    engine::QueryService svc_unbounded(
        {.num_threads = 2, .document_store = &unbounded});
    for (int round = 0; round < 3; ++round) {
      ExpectResultsEqual(svc_unbounded.EvaluateBatch(jobs),
                         svc_bounded.EvaluateBatch(jobs));
    }
    const auto stats = bounded.stats();
    EXPECT_GT(stats.doc_spills, 0u);
    EXPECT_GT(stats.doc_reloads + stats.doc_reattaches, 0u);
  }
  // A finished batch may leave shards momentarily over budget (its
  // workers' pins blocked eviction, and a worker can still hold the batch
  // state briefly after EvaluateBatch returns -- hence the scope above,
  // which drains the pool). The next touch settles each shard back under
  // its budget, so the gauge sits well under the whole corpus.
  for (const engine::DocumentId id : {ids[0], ids[1]}) {
    ASSERT_TRUE(bounded.Fetch(id).ok());
  }
  EXPECT_LT(bounded.stats().resident_doc_bytes, total_tree_bytes);
}

TEST(SpillTest, RemoveOfSpilledDocumentDeletesItsSegment) {
  const std::string dir = MakeTempDir();
  Rng rng(54);
  engine::DocumentStore store({.num_shards = 1,
                               .spill_dir = dir,
                               .max_resident_docs = 1});
  const engine::DocumentId victim = store.Insert(FuzzTree(rng, 0));
  store.Insert(FuzzTree(rng, 1));  // pushes `victim` out to disk
  const std::string segment = dir + "/" + engine::SegmentFileName(victim);
  ASSERT_TRUE(FileExists(segment));
  EXPECT_TRUE(store.Remove(victim));
  // The regression this locks down: removing a spilled document must
  // delete its segment -- no orphaned files accumulating in spill_dir.
  EXPECT_FALSE(FileExists(segment));
  EXPECT_EQ(store.Get(victim), nullptr);

  // Removing a resident document with an on-disk segment cleans up too.
  const engine::DocumentId resident = store.Insert(FuzzTree(rng, 2));
  store.Insert(FuzzTree(rng, 3));               // spills `resident`
  ASSERT_TRUE(store.Fetch(resident).ok());      // faults it back in
  const std::string resident_seg =
      dir + "/" + engine::SegmentFileName(resident);
  ASSERT_TRUE(FileExists(resident_seg));
  EXPECT_TRUE(store.Remove(resident));
  EXPECT_FALSE(FileExists(resident_seg));
}

TEST(SpillTest, SaveSnapshotOfSpilledCorpusReloads) {
  // A store that is *already* partly on disk snapshots correctly: cold
  // documents' segments are reused in place, hot ones are written.
  const std::string dir = MakeTempDir();
  Rng rng(55);
  engine::DocumentStore store({.num_shards = 1,
                               .spill_dir = dir,
                               .max_resident_docs = 2});
  std::vector<std::string> terms;
  std::vector<engine::DocumentId> ids;
  for (std::size_t i = 0; i < 6; ++i) {
    Tree tree = FuzzTree(rng, i);
    terms.push_back(tree.ToTerm());
    ids.push_back(store.Insert(std::move(tree)));
  }
  ASSERT_TRUE(store.SaveSnapshot(dir).ok());
  auto reopened = engine::DocumentStore::OpenSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto fetched = reopened.value()->Fetch(ids[i]);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->tree().ToTerm(), terms[i]);
  }
}

}  // namespace
}  // namespace xpv
