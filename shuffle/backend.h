// Storage backends for the exchange's flat columns (DESIGN.md §9).
//
// ReportStore and PayloadArena are contiguous columns with CSR offsets —
// a layout that maps onto disk verbatim.  This seam makes WHERE those
// columns live pluggable:
//
//   kInRam  (default)  heap vectors, exactly the pre-backend behavior and
//                      cost: a column that is never Host()ed touches none
//                      of the machinery below.
//   kMmap              each column is one file inside a per-backend
//                      tmpdir, mapped MAP_SHARED.  The write-once payload
//                      columns STREAM to disk at injection (buffered
//                      write(2), never resident in full) and are mapped
//                      read-only at Freeze/Seal; the double-buffered
//                      routing columns live in two mmap'd files that the
//                      engine drives with round-granular
//                      madvise(WILLNEED/DONTNEED), one call each per
//                      round, so resident memory is a working set, not
//                      the population.
//
// The hop/scatter kernels (DESIGN.md §4e) never see the difference: both
// modes hand out raw pointers, so results are bit-identical across
// backends at any thread count (tests/test_flat_store.cc,
// tests/test_kernel_differential.cc pin this with a backend axis).
//
// Accounting: the backend keeps per-block (default 2 MB) touch counts for
// every advised range plus streamed-write totals, so benches can report
// bytes-moved/user and read amplification (block bytes fetched / logical
// bytes requested) — the explicit read-amplification style of
// disk-resident columnar layouts.
//
// I/O failures are TYPED: directory/file creation and read-only mapping
// return Status kIoError (core/status.h) instead of crashing; only
// mid-run growth of an already-mapped column (disk full under a running
// exchange) is fatal.

#ifndef NETSHUFFLE_SHUFFLE_BACKEND_H_
#define NETSHUFFLE_SHUFFLE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "shuffle/protocol.h"
#include "util/annotations.h"
#include "util/sync.h"

namespace netshuffle {

enum class StorageBackendKind {
  kInRam = 0,
  kMmap,
};

inline const char* StorageBackendKindName(StorageBackendKind kind) {
  return kind == StorageBackendKind::kMmap ? "mmap" : "ram";
}

/// Parses a backend name: nullptr / "" / "ram" -> kInRam, "mmap" -> kMmap.
/// Anything else warns on stderr and falls back to kInRam, in the spirit of
/// the NS_THREADS/NS_SCALE knob parsers.
StorageBackendKind ParseBackendKind(const char* value);

/// The NS_BACKEND environment knob (benches and the CI out-of-core leg).
inline StorageBackendKind EnvBackendKind() {
  return ParseBackendKind(std::getenv("NS_BACKEND"));
}

struct StorageBackendConfig {
  StorageBackendKind kind = StorageBackendKind::kInRam;
  /// Parent directory for the backend's private tmpdir ("" = $TMPDIR or
  /// /tmp).  The tmpdir and everything in it are removed when the last
  /// owner releases the backend (Session destruction, for sessions).
  std::string dir;
  /// Accounting granularity for the per-block touch counters (bytes).
  size_t block_bytes = 2u << 20;
};

/// Aggregated I/O accounting across every column a backend hosts.
struct StorageIoStats {
  /// Bytes streamed to disk through buffered column writers (injection).
  uint64_t bytes_written = 0;
  /// Sum of madvise(WILLNEED) range lengths — the logical bytes the engine
  /// asked to move from disk, before block rounding.
  uint64_t logical_bytes_advised = 0;
  /// Block-granular fetch volume: touched blocks * block_bytes.  The read-
  /// amplification numerator (denominator: logical_bytes_advised).
  uint64_t block_bytes_advised = 0;
  /// Bytes released back to the page cache via madvise(DONTNEED).
  uint64_t bytes_dropped = 0;
  /// Total per-block touch events across all files.
  uint64_t block_touches = 0;
  /// Touch count of the hottest single block (skew indicator).
  uint64_t max_block_touches = 0;

  double ReadAmplification() const {
    return logical_bytes_advised == 0
               ? 0.0
               : static_cast<double>(block_bytes_advised) /
                     static_cast<double>(logical_bytes_advised);
  }
};

/// One mmap'd file region.  Writable mappings (routing columns) are
/// MAP_SHARED read-write and growable; read-only mappings (sealed payload
/// columns) reject missing/short files with kIoError.  Does NOT unlink on
/// destruction — the hosting column owns the file's lifetime.
class MappedFile {
 public:
  /// Creates (or truncates) `path` at `bytes` bytes and maps it
  /// read-write.  bytes == 0 is valid: the file exists, data() is nullptr.
  static Expected<std::shared_ptr<MappedFile>> CreateWritable(
      std::string path, size_t bytes);

  /// Maps an existing file read-only.  kIoError if it is missing,
  /// unreadable, or shorter than `min_bytes` (a short column file would
  /// SIGBUS on first access past EOF — fail loudly up front instead).
  static Expected<std::shared_ptr<MappedFile>> OpenReadOnly(std::string path,
                                                            size_t min_bytes);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Grows (or shrinks) a writable mapping; contents up to min(old, new)
  /// survive.  kIoError on ftruncate/mmap failure.
  Status Resize(size_t bytes);

  void* data() const { return map_; }
  size_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// Page-aligned madvise over [offset, offset + len) — best-effort, advice
  /// failures are ignored (advice is a hint, never correctness).
  void Advise(size_t offset, size_t len, int advice) const;

 private:
  MappedFile(std::string path, int fd, void* map, size_t bytes, bool writable)
      : path_(std::move(path)),
        fd_(fd),
        map_(map),
        bytes_(bytes),
        writable_(writable) {}

  std::string path_;
  int fd_ = -1;
  void* map_ = nullptr;
  size_t bytes_ = 0;
  bool writable_ = false;
};

/// The backend object: owns the tmpdir, names column files, and aggregates
/// the per-block touch accounting.  Shared (shared_ptr) between the Session
/// and every column it hosts; the LAST release removes the tmpdir and
/// everything left in it, so backend-hosted state never outlives its owner
/// (tests/test_backend.cc pins cleanup on Session destruction).
///
/// Thread-safety: accounting mutators take an internal mutex (they run on
/// the engine's coordinating thread and in benches — never inside the hop
/// or scatter kernels).
class StorageBackend {
 public:
  /// Creates the private tmpdir (mkdtemp under config.dir, $TMPDIR, or
  /// /tmp).  kIoError if the directory cannot be created.  config.kind is
  /// recorded but not consulted here — callers choose whether to build a
  /// backend at all (kInRam configurations never construct one).
  static Expected<std::shared_ptr<StorageBackend>> Create(
      StorageBackendConfig config);

  ~StorageBackend();
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  const std::string& dir() const { return dir_; }
  size_t block_bytes() const { return block_bytes_; }

  /// A fresh unique path "<dir>/<stem>.<counter>" for a new column file.
  std::string NextPath(const char* stem);

  // ---- Accounting ----------------------------------------------------------

  void RecordWrite(uint64_t bytes);
  void RecordWillNeed(const std::string& path, uint64_t offset, uint64_t len);
  void RecordDontNeed(uint64_t bytes);
  StorageIoStats stats() const;

 private:
  StorageBackend(std::string dir, size_t block_bytes)
      : dir_(std::move(dir)), block_bytes_(block_bytes) {}

  std::string dir_;
  size_t block_bytes_;
  mutable ns::Mutex mu_;
  uint64_t next_file_ NS_GUARDED_BY(mu_) = 0;
  StorageIoStats stats_ NS_GUARDED_BY(mu_);
  /// Per-file, per-block touch counters (block i covers bytes
  /// [i * block_bytes_, (i + 1) * block_bytes_)).
  std::map<std::string, std::vector<uint32_t>> block_touches_
      NS_GUARDED_BY(mu_);
};

/// A fixed-stride column that is either a heap vector (default) or one
/// writable mmap'd file on a backend.  Both modes expose raw pointers, so
/// the engine's kernels run unmodified over either; resize() preserves
/// contents in both modes (hosted growth goes through ftruncate + remap of
/// the same file).  Not thread-safe (same contract as the vector it
/// replaces).
template <typename T>
class FlatColumn {
 public:
  FlatColumn() = default;

  bool hosted() const { return backend_ != nullptr; }
  const std::shared_ptr<StorageBackend>& backend() const { return backend_; }

  /// Moves the column onto a backend file (creating it at the current size
  /// and copying any contents over), releasing the heap buffer.
  void Host(std::shared_ptr<StorageBackend> backend, std::string path) {
    if (hosted()) NETSHUFFLE_FATAL("FlatColumn::Host: already hosted");
    backend_ = std::move(backend);
    path_ = std::move(path);
    if (size_ > 0) {
      std::vector<T> saved = std::move(heap_);
      heap_.clear();
      heap_.shrink_to_fit();
      const size_t n = size_;
      size_ = 0;
      resize(n);
      // ns-lint: allow(wire): heap->mmap move of one T[] image within this
      // process — same ABI on both sides, no wire format involved
      std::memcpy(file_->data(), saved.data(), n * sizeof(T));
    }
  }

  /// Moves a hosted column back to the heap (contents preserved), dropping
  /// the file.  The engine uses this to keep a reused workspace's partner
  /// store matched to the live store's backend.
  void Unhost() {
    if (!hosted()) return;
    heap_.resize(size_);
    if (size_ > 0) {
      // ns-lint: allow(wire): mmap->heap move of one T[] image, in-process
      std::memcpy(heap_.data(), file_->data(), size_ * sizeof(T));
    }
    DropFile();
    backend_.reset();
    path_.clear();
  }

  void resize(size_t n) {
    if (!hosted()) {
      heap_.resize(n);
      size_ = n;
      return;
    }
    const size_t bytes = n * sizeof(T);
    if (file_ == nullptr) {
      auto created = MappedFile::CreateWritable(path_, bytes);
      if (!created.ok()) NETSHUFFLE_FATAL(created.status().ToString());
      file_ = std::move(created).value();
    } else if (bytes > file_->bytes()) {
      // Mid-run growth has no recovery path (the exchange needs the slot
      // NOW); creation-time errors are the typed surface.
      const Status grown = file_->Resize(bytes);
      if (!grown.ok()) NETSHUFFLE_FATAL(grown.ToString());
    }
    size_ = n;
  }

  size_t size() const { return size_; }
  T* data() {
    return hosted() ? static_cast<T*>(file_ == nullptr ? nullptr
                                                       : file_->data())
                    : heap_.data();
  }
  const T* data() const {
    return hosted() ? static_cast<const T*>(file_ == nullptr ? nullptr
                                                             : file_->data())
                    : heap_.data();
  }

  void swap(FlatColumn& other) {
    heap_.swap(other.heap_);
    backend_.swap(other.backend_);
    file_.swap(other.file_);
    path_.swap(other.path_);
    std::swap(size_, other.size_);
  }

  /// Heap footprint only — a hosted column's bytes live in the page cache,
  /// which is the whole point (benches report file bytes separately).
  size_t HeapBytes() const { return heap_.capacity() * sizeof(T); }
  size_t FileBytes() const {
    return hosted() && file_ != nullptr ? file_->bytes() : 0;
  }

  /// Round-granular out-of-core schedule, called by the engine once per
  /// round over the source arena.  No-ops for heap columns; hosted columns
  /// prefault the slice and record the touch in the backend's block
  /// accounting.
  void AdviseWillNeed(size_t first, size_t count) const;
  /// Releases the whole column's resident pages back to the page cache
  /// (MAP_SHARED: contents survive in the cache / on disk — only this
  /// process's residency drops).
  void AdviseDontNeedAll() const;

 private:
  void DropFile() {
    if (file_ != nullptr) {
      const std::string path = file_->path();
      file_.reset();
      std::remove(path.c_str());
    }
  }

  std::vector<T> heap_;
  std::shared_ptr<StorageBackend> backend_;
  std::shared_ptr<MappedFile> file_;
  std::string path_;
  size_t size_ = 0;
};

// Defined in backend.cc (they need <sys/mman.h> advice constants).
void AdviseColumnWillNeed(const MappedFile& file, StorageBackend* backend,
                          size_t offset, size_t len);
void AdviseColumnDontNeed(const MappedFile& file, StorageBackend* backend,
                          size_t len);

template <typename T>
void FlatColumn<T>::AdviseWillNeed(size_t first, size_t count) const {
  if (!hosted() || file_ == nullptr || count == 0) return;
  AdviseColumnWillNeed(*file_, backend_.get(), first * sizeof(T),
                       count * sizeof(T));
}

template <typename T>
void FlatColumn<T>::AdviseDontNeedAll() const {
  if (!hosted() || file_ == nullptr || size_ == 0) return;
  AdviseColumnDontNeed(*file_, backend_.get(), size_ * sizeof(T));
}

/// The write-once payload columns (origins, byte offsets, payload bytes) as
/// three streamed backend files: Append() goes through small app-side
/// buffers into write(2) — the population's payload bytes are never
/// resident — and EnsureMapped() (the Freeze/Seal point) flushes and maps
/// all three read-only.  A failed seal can keep appending: the next Append
/// drops the mappings and the streams continue where they left off.
///
/// Owned by PayloadArena behind a shared_ptr (the arena must stay copyable
/// for SessionConfig); copies of a hosted arena share this stream, so treat
/// them as views — one writer, as with the arena's write-once contract.
class PayloadStream {
 public:
  static Expected<std::shared_ptr<PayloadStream>> Create(
      std::shared_ptr<StorageBackend> backend);

  ~PayloadStream();
  PayloadStream(const PayloadStream&) = delete;
  PayloadStream& operator=(const PayloadStream&) = delete;

  void Append(NodeId origin, const uint8_t* data, size_t size);

  size_t num_reports() const { return num_reports_; }
  size_t total_bytes() const { return total_bytes_; }
  const std::shared_ptr<StorageBackend>& backend() const { return backend_; }

  /// Flushes the write buffers and maps all three columns read-only.
  /// kIoError on any open/map failure.  Idempotent while mapped.
  Status EnsureMapped();
  bool mapped() const { return origins_.map != nullptr; }

  // Valid only while mapped() — the arena's accessors guarantee that.
  const NodeId* origins() const {
    return static_cast<const NodeId*>(origins_.map->data());
  }
  const uint32_t* offsets() const {
    return static_cast<const uint32_t*>(offsets_.map->data());
  }
  const uint8_t* bytes() const {
    return bytes_.map == nullptr || bytes_.map->data() == nullptr
               ? nullptr
               : static_cast<const uint8_t*>(bytes_.map->data());
  }

  /// Total file bytes across the three columns.
  size_t DiskBytes() const;
  /// Heap footprint (write buffers only).
  size_t HeapBytes() const;

 private:
  struct Column {
    std::string path;
    int fd = -1;
    std::vector<uint8_t> buf;
    uint64_t written = 0;  // flushed + buffered bytes
    std::shared_ptr<MappedFile> map;
  };

  explicit PayloadStream(std::shared_ptr<StorageBackend> backend)
      : backend_(std::move(backend)) {}

  void AppendRaw(Column* col, const void* data, size_t size);
  void FlushColumn(Column* col);
  void UnmapAll();

  std::shared_ptr<StorageBackend> backend_;
  Column origins_;
  Column offsets_;
  Column bytes_;
  size_t num_reports_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_BACKEND_H_
