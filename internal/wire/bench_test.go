package wire

import "testing"

// BenchmarkChecksum1514 measures the real UDP checksum over a maximum frame.
func BenchmarkChecksum1514(b *testing.B) {
	frame := make([]byte, 1514)
	for i := range frame {
		frame[i] = byte(i)
	}
	b.SetBytes(1514)
	for i := 0; i < b.N; i++ {
		Checksum(frame)
	}
}

// BenchmarkBuildParsePacket measures full frame assembly and validation.
func BenchmarkBuildParsePacket(b *testing.B) {
	src := Endpoint{MAC: MACForHost(1), IP: IPForHost(1), Port: RPCPort}
	dst := Endpoint{MAC: MACForHost(2), IP: IPForHost(2), Port: RPCPort}
	payload := make([]byte, MaxSinglePacketPayload)
	buf := make([]byte, PacketLen(len(payload)))
	h := RPCHeader{Type: TypeResult, FragCount: 1, Flags: FlagLastFrag}
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := BuildPacketInto(buf, src, dst, h, payload, true); err != nil {
			b.Fatal(err)
		}
		if _, err := ParsePacket(buf, true); err != nil {
			b.Fatal(err)
		}
	}
}
