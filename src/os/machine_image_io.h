// Durable machine checkpoints: MachineImage <-> versioned binary file.
//
// SaveMachineImage serializes a captured MachineImage (see Os::Image) into
// a self-describing binary file: an 8-byte magic, a format version, and a
// sequence of tagged sections, each carrying its payload length and a CRC32
// of the payload. LoadMachineImage rebuilds a MachineImage that forks
// bit-identically to the original — the file carries every RNG stream
// mid-sequence, every pending event's (when, band, tie, id) key, the exact
// FlatMap slot layouts and free-list orders, and the disks' head positions,
// because any of those reconstructed "almost right" would silently diverge
// a resumed run.
//
// The save is atomic and durable: the image is written to `path + ".tmp"`,
// fsync'd, renamed over `path`, and the containing directory is fsync'd —
// the same write-order discipline the simulated kernel models. A crash
// during save leaves either the old file or the new one, never a torn mix.
//
// The load rejects — with a clean error and no partial restore — any file
// that is truncated, carries the wrong magic or version, fails a section
// CRC, or parses inconsistently. Corruption can cost the checkpoint, never
// the process.
//
// Each is a thin wrapper over an in-memory half that holds all of the
// format: EncodeMachineImage produces the file's exact bytes and
// DecodeMachineImage validates and parses them, so the host file I/O is
// the only thing the wrappers add (and the encoders can be timed alone).
#ifndef SRC_OS_MACHINE_IMAGE_IO_H_
#define SRC_OS_MACHINE_IMAGE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/os/machine.h"

namespace graysim {

// Current checkpoint format version. Bump on any encoding change; loaders
// reject other versions outright (no cross-version migration).
inline constexpr std::uint32_t kMachineImageFormatVersion = 1;

// Writes `image` to `path` atomically (tmp + fsync + rename + dir fsync).
// Returns false and fills *error (if non-null) on any I/O failure; `path`
// then still holds its previous contents, if any.
[[nodiscard]] bool SaveMachineImage(const MachineImage& image, const std::string& path,
                                    std::string* error = nullptr);

// The bytes SaveMachineImage writes for `image`.
[[nodiscard]] std::vector<std::uint8_t> EncodeMachineImage(const MachineImage& image);

// Parses bytes produced by EncodeMachineImage, with the same checks and the
// same all-or-nothing contract as LoadMachineImage; *error (if non-null)
// gets the rejection reason without a file name.
[[nodiscard]] bool DecodeMachineImage(std::span<const std::uint8_t> bytes, MachineImage* out,
                                      std::string* error = nullptr);

// Reads a checkpoint written by SaveMachineImage. On success *out holds a
// complete image (fork it with Machine::Fork). On any validation failure —
// wrong magic, wrong version, truncation, CRC mismatch, malformed section —
// returns false with *error describing the rejection and *out untouched.
[[nodiscard]] bool LoadMachineImage(const std::string& path, MachineImage* out,
                                    std::string* error = nullptr);

}  // namespace graysim

#endif  // SRC_OS_MACHINE_IMAGE_IO_H_
