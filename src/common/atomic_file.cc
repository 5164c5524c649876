#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace kdash {
namespace {

// fsyncs the file or directory at `path`.
bool Sync(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

Status WriteAndRename(const std::string& tmp, const std::string& path,
                      const std::function<Status(std::ostream&)>& write) {
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      return Status::FailedPrecondition("cannot open " + tmp +
                                        " for writing");
    }
    KDASH_RETURN_IF_ERROR(write(out));
    out.close();
    if (out.fail()) return Status::DataLoss("write to " + tmp + " failed");
  }
  if (!Sync(tmp, O_WRONLY)) return Status::DataLoss("cannot sync " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::DataLoss("cannot rename " + tmp + " to " + path);
  }
  // Make the rename itself durable. Best effort: the new file is complete
  // either way, and some filesystems refuse to sync a directory.
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  Sync(dir.empty() ? "." : dir.string(), O_RDONLY | O_DIRECTORY);
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  Status status = WriteAndRename(tmp, path, write);
  if (!status.ok()) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
  return status;
}

}  // namespace kdash
