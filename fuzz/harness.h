#ifndef FLOWCUBE_FUZZ_HARNESS_H_
#define FLOWCUBE_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>

namespace flowcube {

// Fuzz harnesses for the untrusted-bytes decode surfaces. Each takes an
// arbitrary byte buffer, must never crash / trip a sanitizer, and asserts
// the library's own round-trip invariants on inputs that decode cleanly
// (FC_CHECK failures become fuzzer crashes, so the invariants are part of
// the oracle). All always return 0 — libFuzzer reserves nonzero.
//
// These functions are wrapped by the fuzz_<surface>.cc entry points for
// the standalone fuzz binaries and linked directly into
// tests/fuzz_regression_test.cc to replay the checked-in corpora.

// io/text_io.h: ReadPathDatabase on an arbitrary text stream. Accepted
// inputs must re-serialize idempotently (write∘read is stable after one
// normalization pass).
int FuzzTextIo(const uint8_t* data, size_t size);

// store/mapped_cube.h + stream/checkpoint.h on FCSP v2 images: the
// zero-copy mapped loader (both CRC-verifying and CRC-skipping — the
// structural walk must bound-check either way) and the resume reader
// against the fuzz fixture (fuzz/fixture.h). Accepted checkpoints must
// re-encode byte-identically, and files both readers accept must agree on
// the cube.
int FuzzFcspV2(const uint8_t* data, size_t size);

// serve/shard_codec.h: every input decoded as each shard-internal body
// (cell fetch, children, stats) against the fuzz fixture. Accepted bodies
// must re-encode byte-identically.
int FuzzShardBody(const uint8_t* data, size_t size);

// serve/protocol.h: the FCQP frame + request/response decoders. Accepted
// frames must re-frame byte-identically, accepted requests/responses must
// re-encode canonically, and FrameAssembler must agree with the exact
// decoder regardless of how the bytes are chunked.
int FuzzServeFrame(const uint8_t* data, size_t size);

}  // namespace flowcube

#endif  // FLOWCUBE_FUZZ_HARNESS_H_
