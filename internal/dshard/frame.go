// Package dshard executes one PxQ sharded routing run across OS processes:
// a coordinator (cmd/shardcoord, or a hotpotatod job in distributed mode)
// drives the step barrier, and each worker process (cmd/shardworker) hosts a
// subset of the decomposition's shards through shard.Node. The halo exchange
// — PR 7's receiver-keyed egress buckets — travels over a length-prefixed,
// CRC-framed protocol on TCP or unix sockets.
//
// Robustness is the package's headline: the coordinator enforces per-step
// deadlines with bounded, jitter-backoff retries (requests are idempotent —
// workers cache their last response per step and resend it, so a retried
// STEP never re-executes and never double-counts); worker liveness is
// tracked by spontaneous heartbeats; and on worker death (kill -9, hang,
// corrupt stream) the coordinator pauses the barrier, re-spawns or
// re-admits the worker, bumps the protocol epoch, and rolls every worker
// back to the last coordinated checkpoint. Determinism is inherited from
// internal/shard, so a recovered distributed run stays bit-identical to a
// single-engine run: same per-step state hash, same livelock step, same
// summary. See DESIGN.md §11.
package dshard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: a fixed 14-byte header followed by the payload.
//
//	offset 0  magic "HPWF" (hot-potato wire frame)
//	offset 4  protocol version (1 byte)
//	offset 5  message type (1 byte)
//	offset 6  payload length, uint32 little-endian
//	offset 10 CRC-32 (IEEE) over version, type and payload, uint32 LE
//
// The CRC covers the type and version bytes so a corrupted type cannot
// redirect a valid payload, and the length field is capped before any
// allocation so a corrupted length cannot OOM the reader. Any mismatch
// surfaces as ErrFrameCorrupt — corruption is always loud, never a silent
// misparse.
const (
	frameHeaderLen = 14
	frameVersion   = 1
)

var frameMagic = [4]byte{'H', 'P', 'W', 'F'}

// DefaultMaxFrame is the default cap on one frame's payload length. Halo
// buckets scale with boundary traffic, not mesh size, so even huge runs sit
// far below this.
const DefaultMaxFrame = 64 << 20

// ErrFrameCorrupt reports a frame that failed structural validation: bad
// magic, unknown version, oversized length, or CRC mismatch. It is the
// transport's loud corruption signal; the coordinator treats it as a worker
// failure and recovers via checkpoint rollback rather than guessing at a
// resync.
var ErrFrameCorrupt = errors.New("dshard: corrupt frame")

// AppendFrame appends one encoded frame to dst and returns it.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	return sealFrame(append(dst, payload...), off, typ)
}

// sealFrame fills in the header of the frame that starts at b[off] and runs
// to the end of b.
func sealFrame(b []byte, off int, typ byte) []byte {
	hdr, payload := b[off:off+frameHeaderLen], b[off+frameHeaderLen:]
	copy(hdr, frameMagic[:])
	hdr[4], hdr[5] = frameVersion, typ
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[10:14], frameCRC(hdr[4:6], payload))
	return b
}

func frameCRC(verTyp, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(verTyp), crc32.IEEETable, payload)
}

// WriteFrame writes one frame as a single Write call — the granularity the
// fault injector (and TCP packet boundaries under it) observes. Every frame
// this package sends, whichever buffer it was built in, keeps to that rule.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), typ, payload))
	return err
}

// ReadFrame reads one frame. Transport errors (EOF, timeouts) pass through
// verbatim; structural violations return ErrFrameCorrupt. maxFrame <= 0
// means DefaultMaxFrame.
func ReadFrame(r io.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	fr := frameReader{r: r, max: maxFrame}
	return fr.next()
}

// frameReader is ReadFrame for one connection's whole life: payloads land in
// a buffer it reuses, so one is valid until the next call. A read that times
// out mid-frame keeps what has arrived and the next call resumes that frame —
// a deadline never desynchronizes the stream.
type frameReader struct {
	r   io.Reader
	max int
	hdr [frameHeaderLen]byte
	buf []byte
	n   int // bytes of the frame in progress already read, header included
}

// fill reads the rest of dst, of which the frame's bytes from offset `from`
// on are the part still missing.
func (fr *frameReader) fill(dst []byte, from int) error {
	k, err := io.ReadFull(fr.r, dst[fr.n-from:])
	if fr.n += k; err == io.EOF && fr.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	maxFrame := fr.max
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	hdr := fr.hdr[:]
	if fr.n < frameHeaderLen {
		if err := fr.fill(hdr, 0); err != nil {
			return 0, nil, err
		}
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, hdr[:4])
	}
	if hdr[4] != frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d, this build speaks %d", ErrFrameCorrupt, hdr[4], frameVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[6:10])
	if n > uint32(maxFrame) {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrFrameCorrupt, n, maxFrame)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n) // only ever before the payload's first byte: a resumed frame fits
	}
	payload = fr.buf[:n]
	if err := fr.fill(payload, frameHeaderLen); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrFrameCorrupt, err)
		}
		return 0, nil, err
	}
	fr.n = 0
	if got, want := frameCRC(hdr[4:6], payload), binary.LittleEndian.Uint32(hdr[10:14]); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (frame %#08x, computed %#08x)", ErrFrameCorrupt, want, got)
	}
	return hdr[5], payload, nil
}
