#include "core/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/serialize.h"
#include "serve/fault_injector.h"
#include "tensor/tensor.h"

namespace duet::core {

namespace {

constexpr uint32_t kMagic = 0x44554554;  // "DUET"
// v1 had no payload size/checksum; a torn write produced a file that
// aborted the loader mid-stream. v2 seals the payload so corruption is a
// readable error instead.
constexpr uint32_t kVersion = 2;

CheckpointStatus Fail(std::string message) {
  CheckpointStatus st;
  st.ok = false;
  st.error = std::move(message);
  return st;
}

}  // namespace

uint64_t ModuleFingerprint(const nn::Module& module) {
  uint64_t h = kFnv1a64Basis;
  h = Fnv1a64Mix(h, static_cast<uint64_t>(module.parameters().size()));
  for (const tensor::Tensor& p : module.parameters()) {
    h = Fnv1a64Mix(h, static_cast<uint64_t>(p.ndim()));
    for (int64_t d : p.shape()) h = Fnv1a64Mix(h, static_cast<uint64_t>(d));
  }
  return h;
}

void SaveModuleFile(const std::string& path, const std::string& kind,
                    const nn::Module& module) {
  // Serialize the payload to memory first: the header carries its size and
  // checksum, and a crash mid-save can then at worst produce a file the
  // loader rejects cleanly (never one it half-applies).
  std::ostringstream payload_buf;
  {
    BinaryWriter pw(payload_buf);
    module.Save(pw);
  }
  const std::string payload = payload_buf.str();

  std::ostringstream file_buf;
  {
    BinaryWriter w(file_buf);
    w.WriteU32(kMagic);
    w.WriteU32(kVersion);
    w.WriteString(kind);
    w.WriteU64(ModuleFingerprint(module));
    w.WriteU64(static_cast<uint64_t>(payload.size()));
    w.WriteU64(Fnv1a64(payload.data(), payload.size()));
    file_buf.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  std::string content = file_buf.str();

  // Fault point: a torn write (process killed / disk full mid-flush) leaves
  // a prefix of the file on disk. The loader must reject it cleanly.
  if (serve::FaultInjector::ShouldFail(serve::FaultPoint::kCheckpointWrite)) {
    content.resize(content.size() - content.size() / 3);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DUET_CHECK(out.good()) << "cannot open checkpoint for writing: " << path;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  DUET_CHECK(out.good()) << "short write on checkpoint: " << path;
}

CheckpointStatus TryLoadModuleFile(const std::string& path, const std::string& kind,
                                   nn::Module* module) {
  if (module == nullptr) return Fail("null module passed to TryLoadModuleFile");
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Fail("cannot open checkpoint: " + path);
  std::ostringstream raw;
  raw << in.rdbuf();
  if (in.bad()) return Fail("cannot open checkpoint: " + path);
  const std::string bytes = raw.str();

  ByteCursor c(bytes.data(), bytes.size());
  uint32_t magic = 0;
  if (!c.ReadU32(&magic)) return Fail("truncated checkpoint header: " + path);
  if (magic != kMagic) return Fail("not a duet checkpoint: " + path);
  uint32_t version = 0;
  if (!c.ReadU32(&version)) return Fail("truncated checkpoint header: " + path);
  if (version != kVersion) return Fail("unsupported checkpoint version in " + path);
  std::string file_kind;
  if (!c.ReadString(&file_kind)) return Fail("truncated checkpoint header: " + path);
  if (file_kind != kind) {
    return Fail("checkpoint holds a '" + file_kind + "' model, expected '" + kind +
                "': " + path);
  }
  uint64_t fingerprint = 0;
  uint64_t payload_size = 0;
  uint64_t payload_checksum = 0;
  if (!c.ReadU64(&fingerprint) || !c.ReadU64(&payload_size) ||
      !c.ReadU64(&payload_checksum)) {
    return Fail("truncated checkpoint header: " + path);
  }
  if (fingerprint != ModuleFingerprint(*module)) {
    return Fail("architecture fingerprint mismatch for " + path +
                " (the checkpoint was produced by a differently shaped model)");
  }
  if (c.Remaining() != payload_size) {
    return Fail("truncated checkpoint payload in " + path);
  }
  // Verify integrity BEFORE any byte reaches the module: a failed load must
  // leave the previous weights serving.
  if (Fnv1a64(c.Here(), static_cast<size_t>(payload_size)) != payload_checksum) {
    return Fail("checkpoint payload checksum mismatch in " + path);
  }

  // The payload passed the checksum, so it is byte-identical to what
  // Module::Save wrote for this fingerprint; Load cannot fail structurally.
  // A restore rewrites parameter storage through raw data() pointers; the
  // RAII guard bumps tensor::ParameterVersion() when this scope exits so
  // compiled plans can never serve pre-restore packs (Module::Load
  // guards its own scope too — the counter is monotone, an extra bump is
  // free).
  tensor::ParameterMutationGuard mutation;
  std::istringstream payload_stream(
      std::string(c.Here(), static_cast<size_t>(payload_size)));
  BinaryReader r(payload_stream);
  module->Load(r);
  CheckpointStatus st;
  st.ok = true;
  return st;
}

void LoadModuleFile(const std::string& path, const std::string& kind, nn::Module* module) {
  DUET_CHECK(module != nullptr);
  const CheckpointStatus st = TryLoadModuleFile(path, kind, module);
  DUET_CHECK(st.ok) << st.error;
}

}  // namespace duet::core
