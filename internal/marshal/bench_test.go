package marshal

import "testing"

// BenchmarkMarshalRoundTrip measures the Enc/Dec layer.
func BenchmarkMarshalRoundTrip(b *testing.B) {
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		e := NewEnc(buf)
		e.PutInt32(1)
		e.PutUint64(2)
		e.PutBool(true)
		e.PutString("hello")
		d := NewDec(e.Bytes())
		d.Int32()
		d.Uint64()
		d.Bool()
		if s := d.String(); s != "hello" || d.Err() != nil {
			b.Fatal("round trip failed")
		}
	}
}
