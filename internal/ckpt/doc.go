// Package ckpt implements checkpoint-and-resume acceleration for fault
// injection campaigns. One instrumented clean reference run records
// periodic machine checkpoints — architectural state, counters, output
// length and a dirty-page memory delta — and every subsequent faulty run
// restores the nearest checkpoint at or before its fault site instead of
// re-executing the shared prefix. A campaign of N samples over a clean run
// of S steps drops from O(N·S) to O(N·interval + S) while reproducing the
// full-replay results bit for bit: a restored machine is exactly the
// machine that executed the whole prefix.
//
// Checkpoints under the DBT are only valid while the reference run leaves
// the shared translator state untouched. On a fully warmed snapshot the
// only translator activity a clean run performs is indirect-branch lookup
// servicing (a counter, no cache mutation); any structural activity —
// dispatches, translations, trace formation, invalidation — means the
// reference run's cache diverged from the pristine clones faulty samples
// start from, so recording stops capturing points at that instant and the
// points captured earlier remain valid (graceful degradation down to
// "checkpoint 0 only", which is plain replay).
//
// # Restoring
//
// A Replayer rebuilds checkpoint memory from a working image it advances
// by page deltas. Replayer.Machine allocates a fresh machine per call and
// stays the reference; Replayer.Restore is the campaign path: it returns
// the replayer's one machine rewound in place, so a worker allocates
// nothing per sample once warm. The machine's memory is rolled back, not
// copied: mem tags every page with the generation of its last write, and
// Restore copies back from the image only the pages the previous sample
// wrote. A forward seek then writes each skipped point's page deltas into
// both the image and the machine without marking them dirty; a backward
// seek rebuilds the image from zero and copies it whole. Registers,
// counters, fault, branch hook and cost model are reset, and the output
// buffer is refilled with the reference prefix in place — dropped first
// if a runaway sample left it more than twice the reference stream plus
// a small slack. Campaign workers pair this with dbt.Snapshot.Reset,
// which refills one translator clone per worker in place.
//
// # On-disk checkpoint-log format
//
// A recorded Log can be persisted with Log.EncodeTo and reloaded with
// DecodeLog, so repeated campaigns on the same configuration skip the
// reference-run recording entirely (the session registry keys these files
// by workload, scale, technique, style, policy and interval). The file is
// a frame.Seal envelope, all integers little-endian:
//
//	offset  field
//	0       magic: the 8 ASCII bytes "CFCKLOG2" (the trailing digit is
//	        the format version; incompatible layout changes bump it, and
//	        decoders reject any other magic — version-1 files decode
//	        corrupt and are re-recorded in place)
//	8       fingerprint section: u32 length + bytes — an opaque
//	        caller-supplied identity string (the session cache writes its
//	        key here); DecodeLog rejects the file as stale when it does
//	        not match
//	...     body section: u32 length + the payload below
//	end-4   checksum: IEEE CRC-32 of every preceding byte (magic
//	        included); a mismatch marks the file corrupt
//
// The body payload is a fixed field sequence with no padding:
//
//	interval     u64   capture spacing in machine steps
//	memWords     u32   machine memory size in words
//	truncated    u8    1 when recording stopped early (structural
//	                   translator activity), else 0
//	stop         how the reference run ended: reason u32, ip u32,
//	             detail u32 length + bytes
//	cacheSize    i64   code cache size at the end of the run
//	bytes        u64   in-memory footprint estimate of the points
//	final        machine state (layout below)
//	finalPrefix  translator stats (layout below)
//	output       u32 word count + that many i32 output words
//	points       u32 point count, then per point:
//	               state    machine state
//	               outLen   u32 reference-output prefix length
//	               prefix   translator stats
//	               pages    u32 page count, then per page:
//	                          index u32, wordCount u32, words i32 each
//
// A machine state is the architectural and counter snapshot, in order:
// isa.NumRegs general registers (i32 each), flags (u8), IP (u32), then
// the five u64 counters cycles, steps, direct branches, indirect
// branches, signature checks. Translator stats are seven i64 fields in
// struct order: blocks translated, guest instructions translated, traces
// formed, dispatches, indirect lookups, invalidations, check sites.
//
// Decoding validates the magic, the checksum, the fingerprint and every
// length field against the remaining input before allocating, and
// classifies failures as ErrCorrupt (unreadable bytes) or ErrStale
// (readable bytes recorded for a different configuration). A checksum
// only proves the bytes are the ones that were sealed, not that whoever
// sealed them was honest, so decoding then checks the geometry a restore
// relies on (Log.Validate): point 0 exists; every page index and length
// lies inside memWords; every point's outLen is at most the output
// length; and the step and direct-branch counters never decrease from
// point to point. A log that fails is ErrCorrupt too — restores write
// pages into reused machines, so a bad page must be refused before any
// machine sees it. Both the session disk cache and artifact decoding go
// through this decoder. Callers treat every failure the same way: fall
// back to re-recording (or a local build) and overwrite the file.
package ckpt
