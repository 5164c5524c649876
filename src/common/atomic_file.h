// Crash-safe file replacement.
//
// Writing a file in place truncates it first, so a save that fails (or a
// process that dies) midway destroys the previous contents. WriteFileAtomically
// writes `<path>.tmp` in the same directory, fsyncs it and renames it over
// `path`: a reader sees either the old file or the complete new one, never a
// prefix.
#ifndef KDASH_COMMON_ATOMIC_FILE_H_
#define KDASH_COMMON_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

#include "common/status.h"

namespace kdash {

// Replaces `path` with the bytes `write` puts on the stream. Returns
// kFailedPrecondition when the temp file cannot be created, `write`'s own
// error when it fails, and kDataLoss when writing, syncing or renaming
// fails. On any error the temp file is removed and `path` is untouched.
[[nodiscard]] Status WriteFileAtomically(
    const std::string& path,
    const std::function<Status(std::ostream&)>& write);

}  // namespace kdash

#endif  // KDASH_COMMON_ATOMIC_FILE_H_
