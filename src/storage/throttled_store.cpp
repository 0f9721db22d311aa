#include "storage/throttled_store.hpp"

#include <string>

#include "simgpu/copy.hpp"
#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"

namespace ckpt::storage {

namespace {

enum class BackendKind : std::uint8_t { kMem, kFile, kRemote };

util::StatusOr<BackendKind> ClassifyBackend(std::string_view backend) {
  if (backend.empty() || backend == "mem") return BackendKind::kMem;
  if (backend.starts_with("file=")) return BackendKind::kFile;
  if (backend.starts_with("s3://")) return BackendKind::kRemote;
  return util::InvalidArgument("unknown backend '" + std::string(backend) +
                               "' (want mem, file=<dir> or s3://<bucket>)");
}

}  // namespace

std::shared_ptr<ObjectStore> MakeSsdStore(const sim::Topology& topo,
                                          std::shared_ptr<ObjectStore> inner) {
  auto charge = [&topo](const ObjectKey& key, std::uint64_t size) {
    sim::ChargeNvme(topo, key.rank, size);
  };
  return std::make_shared<ThrottledStore>(std::move(inner), charge, charge);
}

std::shared_ptr<ObjectStore> MakePfsStore(const sim::Topology& topo,
                                          std::shared_ptr<ObjectStore> inner) {
  auto charge = [&topo](const ObjectKey&, std::uint64_t size) {
    sim::ChargePfs(topo, size);
  };
  return std::make_shared<ThrottledStore>(std::move(inner), charge, charge);
}

util::StatusOr<std::shared_ptr<ObjectStore>> OpenDurableBackend(
    const sim::Topology& topo, std::string_view backend, int ordinal,
    const StoreDecorator& decorate) {
  auto kind = ClassifyBackend(backend);
  if (!kind.ok()) return kind.status();
  std::shared_ptr<ObjectStore> raw;
  if (*kind == BackendKind::kRemote) {
    auto remote = OpenRemoteBackend(backend, &topo);
    if (!remote.ok()) return remote.status();
    raw = std::move(*remote);
  } else if (*kind == BackendKind::kFile) {
    auto fs = FileStore::Open(std::string(backend.substr(5)));
    if (!fs.ok()) return fs.status();
    raw = std::move(*fs);
  } else {
    raw = std::make_shared<MemStore>();
  }
  if (decorate) raw = decorate(std::move(raw));
  // A remote store charges its own fabric; no bandwidth wrapper.
  if (*kind == BackendKind::kRemote) return raw;
  return ordinal == 0 ? MakeSsdStore(topo, std::move(raw))
                      : MakePfsStore(topo, std::move(raw));
}

util::Status CheckDurableBackend(std::string_view backend) {
  auto kind = ClassifyBackend(backend);
  if (!kind.ok()) return kind.status();
  if (*kind == BackendKind::kRemote) {
    return RemoteOptions::Parse(backend).status();
  }
  return util::OkStatus();
}

}  // namespace ckpt::storage
