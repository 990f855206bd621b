// Code generated by stubgen from the Test interface definition. DO NOT EDIT.

// Package testsvc contains the automatically generated caller and server
// stubs for the Test interface (version 1).
package testsvc

import (
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/transport"
)

// Interface identity.
const (
	TestName    = "Test"
	TestVersion = uint32(1)
)

// Procedure identifiers.
const (
	TestProcNull      = uint16(1)
	TestProcMaxResult = uint16(2)
	TestProcMaxArg    = uint16(3)
	TestProcAdd4      = uint16(4)
	TestProcReverse   = uint16(5)
	TestProcGreet     = uint16(6)
	TestProcIncrement = uint16(7)
)

// TestClient is the caller stub for a bound remote instance of the
// interface. Its methods may be called from any goroutine.
type TestClient struct{ c *core.Client }

// NewTestClient returns a caller stub on the binding.
func NewTestClient(b *core.Binding) *TestClient { return &TestClient{c: b.NewClient()} }

// Null calls the remote Test.Null procedure.
func (cl *TestClient) Null() error {
	err := cl.c.Call(TestProcNull, 0, nil, nil)
	return err
}

// MaxResult calls the remote Test.MaxResult procedure.
//
//	buffer: ARRAY 1440 OF CHAR (VAR OUT)
func (cl *TestClient) MaxResult(buffer []byte) error {
	if err := core.CheckLen("buffer", len(buffer), 1440); err != nil {
		return err
	}
	err := cl.c.Call(TestProcMaxResult, 0, nil, func(_d *marshal.Dec) {
		_d.FixedBytes(buffer)
	})
	return err
}

// MaxArg calls the remote Test.MaxArg procedure.
//
//	buffer: ARRAY 1440 OF CHAR (VAR IN)
func (cl *TestClient) MaxArg(buffer []byte) error {
	if err := core.CheckLen("buffer", len(buffer), 1440); err != nil {
		return err
	}
	err := cl.c.Call(TestProcMaxArg, 1440, func(_e *marshal.Enc) {
		_e.PutFixedBytes(buffer)
	}, nil)
	return err
}

// Add4 calls the remote Test.Add4 procedure.
//
//	a: INTEGER
//	b: INTEGER
//	c: INTEGER
//	d: INTEGER
func (cl *TestClient) Add4(a int32, b int32, c int32, d int32) (int32, error) {
	var ret0 int32
	err := cl.c.Call(TestProcAdd4, 16, func(_e *marshal.Enc) {
		_e.PutInt32(a)
		_e.PutInt32(b)
		_e.PutInt32(c)
		_e.PutInt32(d)
	}, func(_d *marshal.Dec) {
		ret0 = _d.Int32()
	})
	return ret0, err
}

// Reverse calls the remote Test.Reverse procedure.
//
//	data: ARRAY OF CHAR
//	reversed: ARRAY OF CHAR (VAR OUT)
func (cl *TestClient) Reverse(data []byte, reversed *[]byte) error {
	err := cl.c.Call(TestProcReverse, 4+len(data), func(_e *marshal.Enc) {
		_e.PutVarBytes(data)
	}, func(_d *marshal.Dec) {
		*reversed = _d.VarBytes()
	})
	return err
}

// Greet calls the remote Test.Greet procedure.
//
//	name: Text
func (cl *TestClient) Greet(name *marshal.Text) (*marshal.Text, error) {
	var ret0 *marshal.Text
	err := cl.c.Call(TestProcGreet, 0+marshal.TextWireSize(name), func(_e *marshal.Enc) {
		_e.PutText(name)
	}, func(_d *marshal.Dec) {
		ret0 = _d.GetText()
	})
	return ret0, err
}

// Increment calls the remote Test.Increment procedure.
//
//	counter: CARDINAL (VAR INOUT)
func (cl *TestClient) Increment(counter *uint32) error {
	err := cl.c.Call(TestProcIncrement, 4, func(_e *marshal.Enc) {
		_e.PutUint32(*counter)
	}, func(_d *marshal.Dec) {
		*counter = _d.Uint32()
	})
	return err
}

// TestServer is implemented by the actual service; the generated
// server stub unmarshals each call's arguments, invokes the
// implementation, and marshals the results into the reply.
type TestServer interface {
	Null() error
	MaxResult(buffer []byte) error
	MaxArg(buffer []byte) error
	Add4(a int32, b int32, c int32, d int32) (int32, error)
	Reverse(data []byte, reversed *[]byte) error
	Greet(name *marshal.Text) (*marshal.Text, error)
	Increment(counter *uint32) error
}

// ExportTest builds the dispatchable interface for a node to export.
func ExportTest(impl TestServer) *core.Interface {
	iface := core.NewInterface(TestName, TestVersion)
	iface.Proc(TestProcNull, func(_ transport.Addr, _ *marshal.Dec) ([]byte, error) {
		err := impl.Null()
		if err != nil {
			return nil, err
		}
		return nil, nil
	})
	iface.Proc(TestProcMaxResult, func(_ transport.Addr, _ *marshal.Dec) ([]byte, error) {
		buffer := make([]byte, 1440)
		err := impl.MaxResult(buffer)
		if err != nil {
			return nil, err
		}
		return core.Reply(1440, func(_e *marshal.Enc) {
			_e.PutFixedBytes(buffer)
		})
	})
	iface.Proc(TestProcMaxArg, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		buffer := _d.AliasFixed(1440)
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.MaxArg(buffer)
		if err != nil {
			return nil, err
		}
		return nil, nil
	})
	iface.Proc(TestProcAdd4, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		a := _d.Int32()
		b := _d.Int32()
		c := _d.Int32()
		d := _d.Int32()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		ret0, err := impl.Add4(a, b, c, d)
		if err != nil {
			return nil, err
		}
		return core.Reply(4, func(_e *marshal.Enc) {
			_e.PutInt32(ret0)
		})
	})
	iface.Proc(TestProcReverse, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		data := _d.AliasVarBytes()
		var reversed []byte
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.Reverse(data, &reversed)
		if err != nil {
			return nil, err
		}
		return core.Reply(4+len(reversed), func(_e *marshal.Enc) {
			_e.PutVarBytes(reversed)
		})
	})
	iface.Proc(TestProcGreet, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		name := _d.GetText()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		ret0, err := impl.Greet(name)
		if err != nil {
			return nil, err
		}
		return core.Reply(0+marshal.TextWireSize(ret0), func(_e *marshal.Enc) {
			_e.PutText(ret0)
		})
	})
	iface.Proc(TestProcIncrement, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		counter := _d.Uint32()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.Increment(&counter)
		if err != nil {
			return nil, err
		}
		return core.Reply(4, func(_e *marshal.Enc) {
			_e.PutUint32(counter)
		})
	})
	return iface
}
