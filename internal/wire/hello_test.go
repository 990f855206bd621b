package wire

import (
	"reflect"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: 7, MinVersion: 2, Features: FeatBudget | FeatTrace | 1<<2}
	var b [HelloLen]byte
	in.MarshalTo(b[:])
	out, err := UnmarshalHello(b[:])
	if err != nil {
		t.Fatalf("UnmarshalHello: %v", err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestHelloTruncated(t *testing.T) {
	if _, err := UnmarshalHello(make([]byte, HelloLen-1)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestHelloInRPCFrame(t *testing.T) {
	// A hello payload must fit a single RPC frame and survive the generic
	// header marshal path.
	body := Hello{Version: SessionVersion, MinVersion: SessionMinVersion, Features: FeatBudget | FeatCancel}
	payload := make([]byte, HelloLen)
	body.MarshalTo(payload)
	h := RPCHeader{Version: RPCVersion, Type: TypeHello, Seq: 42, FragCount: 1, Length: uint32(len(payload))}
	frame := make([]byte, RPCHeaderLen+len(payload))
	h.MarshalTo(frame)
	copy(frame[RPCHeaderLen:], payload)
	gotHdr, gotPayload, err := UnmarshalRPC(frame)
	if err != nil {
		t.Fatalf("UnmarshalRPC: %v", err)
	}
	if gotHdr.Type != TypeHello || gotHdr.Seq != 42 {
		t.Fatalf("header = %+v", gotHdr)
	}
	got, err := UnmarshalHello(gotPayload)
	if err != nil || got != body {
		t.Fatalf("payload = %+v, %v; want %+v", got, err, body)
	}
}

func TestFeatureNames(t *testing.T) {
	got := FeatureNames(FeatBudget | FeatTrace | 1<<2 | 1<<40)
	want := []string{"budget", "trace"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FeatureNames = %v, want %v", got, want)
	}
	if FeatureNames(0) != nil {
		t.Fatalf("FeatureNames(0) = %v, want nil", FeatureNames(0))
	}
}

func TestHelloTypeStrings(t *testing.T) {
	if TypeHello.String() != "hello" || TypeHelloAck.String() != "hello-ack" {
		t.Fatalf("strings = %q, %q", TypeHello, TypeHelloAck)
	}
}
