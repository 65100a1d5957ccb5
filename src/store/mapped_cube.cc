#include "store/mapped_cube.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "io/binary_io.h"
#include "store/cube_codec.h"

namespace flowcube {

namespace {

bool EnvFlagDisabled(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "0") == 0;
}

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt v2 checkpoint: ") +
                                 what);
}

}  // namespace

MappedCubeOptions MappedCubeOptions::FromEnv() {
  MappedCubeOptions opts;
  opts.verify_crc = !EnvFlagDisabled("FLOWCUBE_MMAP_VERIFY");
  opts.use_mmap = !EnvFlagDisabled("FLOWCUBE_MMAP");
  return opts;
}

// The pinned file image: an mmap'd region or a shared heap buffer. Every
// flowgraph and slot table of the loaded cube holds a shared_ptr to this,
// so the bytes outlive the MappedCube itself if cells escape.
struct MappedCube::Mapping {
  const char* data = nullptr;
  size_t size = 0;
  void* mmap_base = nullptr;  // null for buffered loads
  std::shared_ptr<const std::string> heap;

  std::string_view view() const { return {data, size}; }

  ~Mapping() {
    if (mmap_base != nullptr) {
      ::munmap(mmap_base, size);
      MetricRegistry::Global()
          .gauge("store.bytes_mapped")
          .Add(-static_cast<int64_t>(size));
    }
  }
};

Result<std::shared_ptr<const MappedCube>> MappedCube::Build(
    std::shared_ptr<const Mapping> mapping, SchemaPtr schema,
    const FlowCubePlan& plan, const IncrementalMaintainerOptions& options,
    const MappedCubeOptions& mopts) {
  const std::string_view bytes = mapping->view();

  FcspV2Header header;
  FC_RETURN_IF_ERROR(ValidateV2Image(
      bytes, CheckpointConfigFingerprint(*schema, plan, options),
      mopts.verify_crc, &header));

  const std::string_view meta =
      bytes.substr(header.meta_offset, header.meta_size);
  const std::string_view arena =
      bytes.substr(header.arena_offset, header.arena_size);
  Result<FlowCube> cube = BuildCubeFromSections(
      meta, arena, mapping, std::move(schema), plan, options);
  if (!cube.ok()) return cube.status();

  return std::shared_ptr<const MappedCube>(
      new MappedCube(std::move(mapping), header, std::move(cube.value())));
}

Result<std::shared_ptr<const MappedCube>> MappedCube::Load(
    const std::string& filename, SchemaPtr schema, const FlowCubePlan& plan,
    const IncrementalMaintainerOptions& options,
    const MappedCubeOptions& mopts) {
  TraceSpan span("store.mapped_cube.load");
  MetricRegistry& reg = MetricRegistry::Global();
  static Counter& m_loads = reg.counter("store.mapped_loads");
  static Counter& m_failures = reg.counter("store.load_failures");
  static Gauge& m_bytes = reg.gauge("store.bytes_mapped");

  auto mapping = std::make_shared<Mapping>();
  if (mopts.use_mmap) {
    const int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      m_failures.Increment();
      return Status::NotFound("cannot open " + filename);
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      m_failures.Increment();
      return Status::Internal("cannot stat " + filename);
    }
    mapping->size = static_cast<size_t>(st.st_size);
    if (mapping->size == 0) {
      ::close(fd);
      m_failures.Increment();
      return Corrupt("truncated header");
    }
    void* base =
        ::mmap(nullptr, mapping->size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping survives the descriptor
    if (base == MAP_FAILED) {
      m_failures.Increment();
      return Status::Internal("mmap failed for " + filename + ": " +
                              std::strerror(errno));
    }
    mapping->mmap_base = base;
    mapping->data = static_cast<const char*>(base);
    m_bytes.Add(static_cast<int64_t>(mapping->size));
  } else {
    Result<std::string> bytes = ReadCheckpointFile(filename);
    if (!bytes.ok()) {
      m_failures.Increment();
      return bytes.status();
    }
    mapping->heap = std::make_shared<const std::string>(
        std::move(bytes).value());
    mapping->data = mapping->heap->data();
    mapping->size = mapping->heap->size();
  }

  Result<std::shared_ptr<const MappedCube>> loaded =
      Build(std::move(mapping), std::move(schema), plan, options, mopts);
  if (loaded.ok()) {
    m_loads.Increment();
  } else {
    m_failures.Increment();
  }
  return loaded;
}

Result<std::shared_ptr<const MappedCube>> MappedCube::FromBuffer(
    std::shared_ptr<const std::string> buffer, SchemaPtr schema,
    const FlowCubePlan& plan, const IncrementalMaintainerOptions& options,
    const MappedCubeOptions& mopts) {
  TraceSpan span("store.mapped_cube.load");
  MetricRegistry& reg = MetricRegistry::Global();
  static Counter& m_loads = reg.counter("store.mapped_loads");
  static Counter& m_failures = reg.counter("store.load_failures");

  auto mapping = std::make_shared<Mapping>();
  mapping->heap = std::move(buffer);
  mapping->data = mapping->heap->data();
  mapping->size = mapping->heap->size();

  Result<std::shared_ptr<const MappedCube>> loaded =
      Build(std::move(mapping), std::move(schema), plan, options, mopts);
  if (loaded.ok()) {
    m_loads.Increment();
  } else {
    m_failures.Increment();
  }
  return loaded;
}

size_t MappedCube::bytes_mapped() const { return mapping_->size; }

size_t MappedCube::ResidentBytes() const {
  size_t resident = mapping_->size;
  if (mapping_->mmap_base != nullptr) {
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t pages = (mapping_->size + page - 1) / page;
    std::vector<unsigned char> vec(pages);
    if (::mincore(mapping_->mmap_base, mapping_->size, vec.data()) == 0) {
      resident = 0;
      for (unsigned char v : vec) {
        if ((v & 1u) != 0) resident += page;
      }
      if (resident > mapping_->size) resident = mapping_->size;
    }
  }
  MetricRegistry::Global()
      .gauge("store.resident_bytes")
      .Set(static_cast<int64_t>(resident));
  return resident;
}

MappedCube::~MappedCube() = default;

}  // namespace flowcube
