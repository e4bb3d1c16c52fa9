#include "engine/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "tree/tree_io.h"

namespace xpv::engine {

namespace {

constexpr char kSegmentMagic[8] = {'X', 'P', 'V', 'S', 'N', 'A', 'P', '1'};
constexpr char kManifestMagic[8] = {'X', 'P', 'V', 'M', 'A', 'N', '0', '1'};
constexpr std::uint32_t kSectionMagic = 0x54434553u;  // "SECT" LE
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kSectionHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr const char* kManifestFile = "MANIFEST.xpv";

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

/// Directory holding `path` ("." for a bare file name).
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash == 0 ? 1 : slash);
}

/// Writes `bytes` to `path` atomically: a temporary sibling is written,
/// then renamed over the target, so no reader ever opens a torn file.
/// kDurable also fsyncs the temporary before the rename and the directory
/// after it, so a crash (even SIGKILL / power loss) leaves either the old
/// file or the new one. kVolatile leaves both to the page cache: after a
/// crash the file may be missing, empty or torn.
Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       SegmentSync sync) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(ErrnoMessage("cannot create", tmp));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          errno == ENOSPC
              ? Status::ResourceExhausted(ErrnoMessage("cannot write", tmp))
              : Status::Internal(ErrnoMessage("cannot write", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return status;
    }
    written += static_cast<std::size_t>(n);
  }
  if (sync == SegmentSync::kDurable && ::fsync(fd) != 0) {
    const Status status = Status::Internal(ErrnoMessage("cannot fsync", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Status::Internal(ErrnoMessage("cannot rename", tmp));
    ::unlink(tmp.c_str());
    return status;
  }
  // Persist the rename itself: fsync the containing directory.
  if (sync == SegmentSync::kDurable) {
    return SyncDirectory(DirectoryOf(path));
  }
  return Status::OK();
}

/// Little-endian store into an already-sized buffer (the in-place
/// counterpart of ByteWriter, for header fields patched after encoding).
void StoreU32(std::string& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[at + i] = static_cast<char>(v >> (8 * i));
}

void StoreU64(std::string& out, std::size_t at, std::uint64_t v) {
  StoreU32(out, at, static_cast<std::uint32_t>(v));
  StoreU32(out, at + 4, static_cast<std::uint32_t>(v >> 32));
}

/// Appends a section header for `type` with zeroed size and CRC fields;
/// returns its offset for PatchSection.
std::size_t BeginSection(SectionType type, std::string& out) {
  const std::size_t at = out.size();
  ByteWriter w(&out);
  w.U32(kSectionMagic);
  w.U32(static_cast<std::uint32_t>(type));
  w.U64(0);  // payload bytes, patched
  w.U32(0);  // CRC32(payload), patched
  w.U32(0);  // CRC32(section header), patched
  return at;
}

/// Fills in the size and both CRCs of the section whose header starts at
/// `at` and whose payload runs to the end of `out`.
void PatchSection(std::size_t at, std::string& out) {
  const std::size_t payload = at + kSectionHeaderBytes;
  const std::size_t payload_size = out.size() - payload;
  StoreU64(out, at + 8, payload_size);
  StoreU32(out, at + 16, Crc32(out.data() + payload, payload_size));
  StoreU32(out, at + 20, Crc32(out.data() + at, kSectionHeaderBytes - 4));
}

struct SectionView {
  std::uint32_t type = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

std::string SectionLabel(std::uint32_t type) {
  return std::string(SectionTypeName(type)) + " section";
}

/// Validates the file header and every section frame (magic, CRCs,
/// bounds, ascending type order) before any payload is interpreted.
Result<std::vector<SectionView>> ParseSegmentFrames(const MappedFile& file,
                                                    const std::string& path) {
  if (file.size() < kFileHeaderBytes) {
    return Status::DataLoss("segment '" + path +
                            "': truncated before the file header ends");
  }
  if (std::memcmp(file.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::DataLoss("segment '" + path + "': bad magic");
  }
  ByteReader header(file.data() + 8, kFileHeaderBytes - 8);
  const std::uint32_t version = header.U32().value();
  const std::uint32_t section_count = header.U32().value();
  const std::uint64_t total_bytes = header.U64().value();
  const std::uint32_t header_crc = header.U32().value();
  if (Crc32(file.data(), kFileHeaderBytes - 4) != header_crc) {
    return Status::DataLoss("segment '" + path + "': file header CRC mismatch");
  }
  if (version > kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "segment '" + path + "': format version " + std::to_string(version) +
        " is newer than supported version " +
        std::to_string(kSnapshotFormatVersion));
  }
  if (total_bytes != file.size()) {
    return Status::DataLoss("segment '" + path + "': truncated (header says " +
                            std::to_string(total_bytes) + " bytes, file has " +
                            std::to_string(file.size()) + ")");
  }
  std::vector<SectionView> sections;
  std::size_t pos = kFileHeaderBytes;
  std::uint32_t prev_type = 0;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (pos + kSectionHeaderBytes > file.size()) {
      return Status::DataLoss("segment '" + path +
                              "': truncated inside a section header");
    }
    ByteReader sh(file.data() + pos, kSectionHeaderBytes);
    const std::uint32_t magic = sh.U32().value();
    const std::uint32_t type = sh.U32().value();
    const std::uint64_t payload_size = sh.U64().value();
    const std::uint32_t payload_crc = sh.U32().value();
    const std::uint32_t section_crc = sh.U32().value();
    if (Crc32(file.data() + pos, kSectionHeaderBytes - 4) != section_crc) {
      return Status::DataLoss("segment '" + path + "': header CRC mismatch (" +
                              SectionLabel(type) + ")");
    }
    if (magic != kSectionMagic) {
      return Status::DataLoss("segment '" + path + "': bad section magic (" +
                              SectionLabel(type) + ")");
    }
    if (SectionTypeName(type) == "unknown") {
      return Status::DataLoss("segment '" + path + "': unknown section type " +
                              std::to_string(type));
    }
    if (type <= prev_type) {
      return Status::DataLoss("segment '" + path +
                              "': sections out of order (" +
                              SectionLabel(type) + " after " +
                              SectionLabel(prev_type) + ")");
    }
    prev_type = type;
    pos += kSectionHeaderBytes;
    if (payload_size > file.size() - pos) {
      return Status::DataLoss("segment '" + path + "': truncated " +
                              SectionLabel(type));
    }
    if (Crc32(file.data() + pos, payload_size) != payload_crc) {
      return Status::DataLoss("segment '" + path + "': CRC mismatch in " +
                              SectionLabel(type));
    }
    sections.push_back(SectionView{type, file.data() + pos,
                                   static_cast<std::size_t>(payload_size)});
    pos += payload_size;
  }
  if (pos != file.size()) {
    return Status::DataLoss("segment '" + path +
                            "': trailing bytes after the last section");
  }
  return sections;
}

}  // namespace

// ----------------------------------------------------------- MappedFile

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file '" + path + "'");
    }
    return Status::Internal(ErrnoMessage("cannot open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::Internal(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return status;
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    void* map = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const Status status = Status::Internal(ErrnoMessage("cannot mmap", path));
      ::close(fd);
      return status;
    }
    file.data_ = static_cast<const std::uint8_t*>(map);
  }
  ::close(fd);  // the mapping keeps the pages; the descriptor is not needed
  return file;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
    }
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
  }
  size_ = 0;
}

// ------------------------------------------------------------- segments

std::string_view SectionTypeName(std::uint32_t type) {
  switch (static_cast<SectionType>(type)) {
    case SectionType::kMeta:
      return "meta";
    case SectionType::kTree:
      return "tree";
    case SectionType::kAxes:
      return "axes";
  }
  return "unknown";
}

std::string SegmentFileName(std::uint64_t document_id) {
  return "doc-" + std::to_string(document_id) + ".xpvseg";
}

Status WriteDocumentSegment(const std::string& path, std::uint64_t document_id,
                            const std::string& name, const Tree& tree,
                            const AxisCache* cache, bool interned,
                            SegmentSync sync) {
  const std::vector<Axis> built =
      cache != nullptr ? cache->BuiltAxes() : std::vector<Axis>{};
  // One buffer, sized up front for everything but the axes: each section
  // is encoded in place behind a placeholder header, whose size and CRC
  // fields are patched once its payload is complete.
  const std::size_t meta_bytes = 8 + 4 + name.size() + 1;
  std::string file;
  file.reserve(kFileHeaderBytes + 2 * kSectionHeaderBytes + meta_bytes +
               TreeIo::EncodedTreeBytes(tree));
  file.append(kSegmentMagic, sizeof(kSegmentMagic));
  ByteWriter w(&file);
  w.U32(kSnapshotFormatVersion);
  w.U32(built.empty() ? 2 : 3);  // section count
  w.U64(0);                      // total file bytes, patched
  w.U32(0);                      // CRC32(file header), patched

  const std::size_t meta = BeginSection(SectionType::kMeta, file);
  w.U64(document_id);
  w.Str(name);
  w.U8(interned ? 1 : 0);
  PatchSection(meta, file);

  const std::size_t tree_section = BeginSection(SectionType::kTree, file);
  TreeIo::EncodeTree(tree, w);
  PatchSection(tree_section, file);

  if (!built.empty()) {
    const std::size_t axes = BeginSection(SectionType::kAxes, file);
    w.U32(static_cast<std::uint32_t>(built.size()));
    for (Axis axis : built) {
      w.U32(static_cast<std::uint32_t>(axis));
      // Persist the canonical interval form regardless of the cache's
      // in-memory representation: the relation is a pure function of the
      // tree, and the interval builder emits it straight from the
      // pre-order index without touching O(n^2) bits.
      TreeIo::EncodeIntervalMatrix(AxisIntervalMatrix(tree, axis), w);
    }
    PatchSection(axes, file);
  }

  StoreU64(file, 8 + 4 + 4, file.size());  // after magic, version, count
  StoreU32(file, kFileHeaderBytes - 4,
           Crc32(file.data(), kFileHeaderBytes - 4));
  return WriteFileAtomic(path, file, sync);
}

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file '" + path + "'");
    }
    return Status::Internal(ErrnoMessage("cannot open", path));
  }
  const Status status =
      ::fsync(fd) == 0 ? Status::OK()
                       : Status::Internal(ErrnoMessage("cannot fsync", path));
  ::close(fd);
  return status;
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(ErrnoMessage("cannot open", dir));
  // EINVAL: the file system cannot sync directories at all, so there is
  // nothing more to wait for.
  const Status status =
      ::fsync(fd) == 0 || errno == EINVAL
          ? Status::OK()
          : Status::Internal(ErrnoMessage("cannot fsync", dir));
  ::close(fd);
  return status;
}

Result<LoadedSegment> LoadDocumentSegment(const std::string& path) {
  XPV_ASSIGN_OR_RETURN(const MappedFile file, MappedFile::Open(path));
  XPV_ASSIGN_OR_RETURN(const std::vector<SectionView> sections,
                       ParseSegmentFrames(file, path));
  LoadedSegment segment;
  segment.mapped_bytes = file.size();
  bool have_meta = false;
  bool have_tree = false;
  for (const SectionView& section : sections) {
    ByteReader r(section.payload, section.payload_size);
    switch (static_cast<SectionType>(section.type)) {
      case SectionType::kMeta: {
        XPV_ASSIGN_OR_RETURN(segment.meta.document_id, r.U64());
        XPV_ASSIGN_OR_RETURN(segment.meta.name, r.Str());
        XPV_ASSIGN_OR_RETURN(const std::uint8_t interned, r.U8());
        if (segment.meta.document_id == 0 || interned > 1) {
          return Status::DataLoss("segment '" + path +
                                  "': invalid meta section contents");
        }
        segment.meta.interned = interned == 1;
        have_meta = true;
        break;
      }
      case SectionType::kTree: {
        XPV_ASSIGN_OR_RETURN(segment.tree, TreeIo::DecodeTree(r));
        have_tree = true;
        break;
      }
      case SectionType::kAxes: {
        XPV_ASSIGN_OR_RETURN(const std::uint32_t count, r.U32());
        if (count > kAllAxes.size()) {
          return Status::DataLoss("segment '" + path +
                                  "': axes section lists too many axes");
        }
        std::uint32_t prev = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
          XPV_ASSIGN_OR_RETURN(const std::uint32_t axis, r.U32());
          if (axis >= kAllAxes.size() || (i > 0 && axis <= prev)) {
            return Status::DataLoss("segment '" + path +
                                    "': axes section out of order");
          }
          prev = axis;
          XPV_ASSIGN_OR_RETURN(IntervalMatrix m,
                               TreeIo::DecodeIntervalMatrix(r));
          segment.axes.emplace_back(static_cast<Axis>(axis), std::move(m));
        }
        break;
      }
    }
    if (!r.exhausted()) {
      return Status::DataLoss("segment '" + path + "': trailing bytes in " +
                              SectionLabel(section.type));
    }
  }
  if (!have_meta || !have_tree) {
    return Status::DataLoss("segment '" + path + "': missing " +
                            std::string(have_meta ? "tree" : "meta") +
                            " section");
  }
  for (const auto& [axis, matrix] : segment.axes) {
    (void)axis;
    if (matrix.size() != segment.tree.size()) {
      return Status::DataLoss(
          "segment '" + path +
          "': axes section dimension disagrees with the tree section");
    }
  }
  return segment;
}

std::unique_ptr<const BoolMatrix> AxisMatrixForBacking(IntervalMatrix m,
                                                       bool dense) {
  if (dense) {
    Result<BitMatrix> bits = BitMatrix::Create(m.size());
    if (bits.ok()) {
      for (std::size_t row = 0; row < m.size(); ++row) {
        auto [begin, end] = m.RunsOf(row);
        for (const IntervalRun* run = begin; run != end; ++run) {
          bits->SetRowRange(row, run->begin, run->end);
        }
      }
      return std::make_unique<DenseBoolMatrix>(std::move(bits).value());
    }
    // Above the dense ceiling: fall through to the succinct form (the
    // cache would not have built dense here either).
  }
  return std::make_unique<IntervalMatrix>(std::move(m));
}

// ------------------------------------------------------------- manifest

Status WriteManifest(const std::string& dir,
                     const SnapshotManifest& manifest) {
  std::string file(kManifestMagic, sizeof(kManifestMagic));
  ByteWriter w(&file);
  w.U32(kSnapshotFormatVersion);
  w.U64(manifest.next_document_id);
  w.U64(manifest.document_ids.size());
  for (std::uint64_t id : manifest.document_ids) w.U64(id);
  w.U32(Crc32(file.data(), file.size()));
  return WriteFileAtomic(dir + "/" + kManifestFile, file,
                         SegmentSync::kDurable);
}

Result<SnapshotManifest> LoadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  XPV_ASSIGN_OR_RETURN(const MappedFile file, MappedFile::Open(path));
  if (file.size() < sizeof(kManifestMagic) + 4 + 8 + 8 + 4) {
    return Status::DataLoss("manifest '" + path + "': truncated");
  }
  if (std::memcmp(file.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::DataLoss("manifest '" + path + "': bad magic");
  }
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, file.data() + file.size() - 4, 4);
  if (Crc32(file.data(), file.size() - 4) != stored_crc) {
    return Status::DataLoss("manifest '" + path + "': CRC mismatch");
  }
  ByteReader r(file.data() + 8, file.size() - 8 - 4);
  XPV_ASSIGN_OR_RETURN(const std::uint32_t version, r.U32());
  if (version > kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "manifest '" + path + "': format version " + std::to_string(version) +
        " is newer than supported version " +
        std::to_string(kSnapshotFormatVersion));
  }
  SnapshotManifest manifest;
  XPV_ASSIGN_OR_RETURN(manifest.next_document_id, r.U64());
  XPV_ASSIGN_OR_RETURN(const std::uint64_t count, r.U64());
  if (count > (std::uint64_t{1} << 32) || count * 8 != r.remaining()) {
    return Status::DataLoss("manifest '" + path +
                            "': document count disagrees with file size");
  }
  manifest.document_ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    XPV_ASSIGN_OR_RETURN(const std::uint64_t id, r.U64());
    if (id == 0 || id >= manifest.next_document_id) {
      return Status::DataLoss("manifest '" + path +
                              "': document id out of range");
    }
    manifest.document_ids.push_back(id);
  }
  return manifest;
}

}  // namespace xpv::engine
