//===- store/ResultCache.h - Content-addressed result cache ------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable memoization of driver-side measurements. A cache entry is one
/// runtime::Measurement, content-addressed by an FNV-1a digest over a
/// canonical byte recipe of everything the measurement is a pure
/// function of:
///
///   key = fnv1a64( tag || kernel identity || driver options
///                  || platform device configs )
///
/// where the kernel identity is either the source text (tag 'S') or the
/// full serialized bytecode (tag 'B') — the two tags form disjoint key
/// spaces. Because the simulator is deterministic, equal keys imply
/// equal measurements, so a hit can skip execution entirely; see
/// core::synthesizeAndMeasure and core::measureKernels for the
/// integrated fast path.
///
/// On disk the cache is a flat directory of archive files named
/// <hex key>.clgs, written atomically (temp + rename), so concurrent
/// workers and even concurrent processes can share one cache directory:
/// the worst race outcome is the same entry written twice. A process-
/// local in-memory map front-ends the directory so repeated hits cost a
/// hash lookup, not a file read.
///
/// The store lifecycle layer (store/Lifecycle.h) may evict entries on
/// disk behind a live cache instance — an external `store::sweep` or
/// `clgen-store gc` unlinks whole files. The in-memory front therefore
/// REVALIDATES disk-backed resident entries on every memory hit: each
/// resident record remembers the (mtime, size) of the file it came
/// from, and one stat (no read, no checksum) confirms the file is
/// still there unchanged — using nanosecond mtimes where the
/// filesystem provides them. On coarse (1 s granularity) filesystems
/// the record additionally carries the archive's trailer checksum and
/// revalidation re-reads those 8 bytes, so a same-size rewrite within
/// the same second cannot serve stale bytes. A swept entry drops out
/// of memory and the lookup reports the miss honestly, so a long-lived
/// process never serves measurements the store no longer holds.
/// Entries that never reached disk (unwritable directory) are exempt —
/// there is nothing external to invalidate them.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_STORE_RESULTCACHE_H
#define CLGEN_STORE_RESULTCACHE_H

#include "runtime/HostDriver.h"
#include "store/Archive.h"
#include "support/Result.h"

#include <atomic>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace clgen {
namespace store {

/// Cache key for a measurement of \p Kernel (identified by its full
/// serialized bytecode) under \p Opts on \p P. Every field that can
/// change the measurement — including the payload RNG seed — is part of
/// the recipe.
uint64_t measurementKey(const vm::CompiledKernel &Kernel,
                        const runtime::DriverOptions &Opts,
                        const runtime::Platform &P);

/// Source-text variant of the key (tag 'S'): for callers that cache at
/// the kernel-source level before compiling. Distinct from the bytecode
/// key space by construction.
uint64_t measurementKey(const std::string &Source,
                        const runtime::DriverOptions &Opts,
                        const runtime::Platform &P);

class ResultCache {
public:
  /// Running counters. Hits/misses are counted by lookup(); corrupt or
  /// unreadable entries count as misses and are recorded separately.
  struct Stats {
    size_t Hits = 0;
    size_t MemoryHits = 0; // Subset of Hits served without file I/O.
    size_t Misses = 0;
    size_t BadEntries = 0; // Corrupt/truncated files seen by lookup.
    size_t Writes = 0;
    size_t WriteFailures = 0;
    /// Resident entries dropped because their backing file was evicted
    /// or replaced on disk (external sweep/gc) since they were cached.
    size_t StaleMemoryEntries = 0;
  };

  /// Opens (creating if needed) the cache directory. An empty or
  /// uncreatable directory is not an error — the cache just misses; the
  /// failure is visible via directoryOk().
  explicit ResultCache(std::string Directory);

  /// Returns the memoized measurement for \p Key, or nullopt on miss.
  /// Thread-safe; the in-memory map is guarded by a reader/writer lock
  /// (pool workers and the streaming pipeline's enqueue-time probe hit
  /// it concurrently — hits take the shared side and never serialize
  /// against each other; counters are atomics for the same reason).
  /// Memory hits of disk-backed entries revalidate against the file's
  /// (mtime, size) so externally swept entries are honest misses; see
  /// the file header.
  std::optional<runtime::Measurement> lookup(uint64_t Key);

  /// Memoizes \p M under \p Key (memory + atomic disk write-back).
  /// Thread-safe; concurrent stores of the same key are benign.
  Status store(uint64_t Key, const runtime::Measurement &M);

  const std::string &directory() const { return Dir; }
  bool directoryOk() const { return DirOk; }
  Stats stats() const;

private:
  std::string entryPath(uint64_t Key) const;
  /// The miss path: reads the entry file, validates it, and (on
  /// success) installs it in the memory front with its disk identity.
  std::optional<runtime::Measurement> probeDisk(uint64_t Key);

  std::string Dir;
  bool DirOk = false;
  /// Reader/writer guard over Memory: lookups of resident entries take
  /// the shared side, so a warm batch probing from many threads scales
  /// instead of convoying on one mutex. Stat counters are relaxed
  /// atomics — they are tallies, not synchronization.
  mutable std::shared_mutex MapMutex;
  /// A resident entry plus the on-disk identity it was loaded from /
  /// written as. Disk false = memory-only entry (directory unwritable
  /// or write-back failed): exempt from revalidation because there is
  /// nothing external that could invalidate it.
  ///
  /// Coarse-mtime hardening: on filesystems with 1 s mtime granularity
  /// a same-size rewrite within the same second is invisible to the
  /// (mtime, size) probe. When the backing file's mtime has zero
  /// sub-second digits — the signature of a coarse filesystem (a
  /// nanosecond clock landing on an exact second is a ~1e-9 event) —
  /// the identity additionally records the archive's trailer checksum,
  /// and revalidation re-reads those 8 trailing bytes to catch the
  /// rewrite. Filesystems with real nanosecond mtimes never pay the
  /// extra read.
  struct Resident {
    runtime::Measurement M;
    bool Disk = false;
    int64_t MtimeNs = 0; // Backing file mtime, ns since epoch.
    uint64_t Size = 0;   // Backing file size in bytes.
    /// True when MtimeNs is whole-second (coarse filesystem): the
    /// trailer checksum below participates in revalidation.
    bool CoarseMtime = false;
    uint64_t TrailerChecksum = 0; // Archive trailer (last 8 bytes).
  };
  /// Stats the entry file for \p Key (one syscall on POSIX) and fills
  /// the backing identity. False when the file is not statable —
  /// callers that just performed successful disk I/O must then NOT
  /// install a memory entry at all (a revalidation-exempt resident
  /// for a file that may exist would resurrect the stale-hit bug).
  bool recordBacking(uint64_t Key, Resident &R) const;
  std::unordered_map<uint64_t, Resident> Memory;
  struct AtomicStats {
    std::atomic<size_t> Hits{0};
    std::atomic<size_t> MemoryHits{0};
    std::atomic<size_t> Misses{0};
    std::atomic<size_t> BadEntries{0};
    std::atomic<size_t> Writes{0};
    std::atomic<size_t> WriteFailures{0};
    std::atomic<size_t> StaleMemoryEntries{0};
  };
  AtomicStats Counters;
};

/// Serializes one measurement into an archive payload / reads it back
/// (exposed for the archive round-trip tests).
void serializeMeasurement(ArchiveWriter &W, const runtime::Measurement &M);
runtime::Measurement deserializeMeasurement(ArchiveReader &R);

} // namespace store
} // namespace clgen

#endif // CLGEN_STORE_RESULTCACHE_H
