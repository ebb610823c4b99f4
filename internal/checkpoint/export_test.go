package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderLen is the envelope size, for tests that slice files apart.
const HeaderLen = headerLen

// Envelope wraps a payload in a valid HPCK header (magic, format, container
// version, matching CRC), so tests and the fuzzer reach the payload decoders.
func Envelope(format Format, payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload))
	copy(b, magic[:])
	b[4] = byte(format)
	binary.LittleEndian.PutUint32(b[5:9], Version)
	binary.LittleEndian.PutUint32(b[9:headerLen], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}
