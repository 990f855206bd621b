// Code generated by stubgen from the Kitchen interface definition. DO NOT EDIT.

// Package kitchensink contains the automatically generated caller and server
// stubs for the Kitchen interface (version 2).
package kitchensink

import (
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/transport"
)

// Interface identity.
const (
	KitchenName    = "Kitchen"
	KitchenVersion = uint32(2)
)

// Procedure identifiers.
const (
	KitchenProcScalars       = uint16(1)
	KitchenProcOutScalars    = uint16(2)
	KitchenProcInOutScalar   = uint16(3)
	KitchenProcFixedBoth     = uint16(4)
	KitchenProcFixedInOut    = uint16(5)
	KitchenProcVarEcho       = uint16(6)
	KitchenProcVarInOut      = uint16(7)
	KitchenProcTextRoundTrip = uint16(8)
	KitchenProcRealMath      = uint16(9)
)

// KitchenClient is the caller stub for a bound remote instance of the
// interface. Its methods may be called from any goroutine.
type KitchenClient struct{ c *core.Client }

// NewKitchenClient returns a caller stub on the binding.
func NewKitchenClient(b *core.Binding) *KitchenClient { return &KitchenClient{c: b.NewClient()} }

// Scalars calls the remote Kitchen.Scalars procedure.
//
//	a: INTEGER
//	b: CARDINAL
//	c: LONGINT
//	l: LONGCARD
//	f: BOOLEAN
//	g: CHAR
//	h: REAL
func (cl *KitchenClient) Scalars(a int32, b uint32, c int64, l uint64, f bool, g byte, h float64) (int64, error) {
	var ret0 int64
	err := cl.c.Call(KitchenProcScalars, 34, func(_e *marshal.Enc) {
		_e.PutInt32(a)
		_e.PutUint32(b)
		_e.PutInt64(c)
		_e.PutUint64(l)
		_e.PutBool(f)
		_e.PutByte(g)
		_e.PutFloat64(h)
	}, func(_d *marshal.Dec) {
		ret0 = _d.Int64()
	})
	return ret0, err
}

// OutScalars calls the remote Kitchen.OutScalars procedure.
//
//	a: INTEGER (VAR OUT)
//	b: CARDINAL (VAR OUT)
//	c: LONGINT (VAR OUT)
//	l: LONGCARD (VAR OUT)
//	f: BOOLEAN (VAR OUT)
//	g: CHAR (VAR OUT)
//	h: REAL (VAR OUT)
func (cl *KitchenClient) OutScalars(a *int32, b *uint32, c *int64, l *uint64, f *bool, g *byte, h *float64) error {
	err := cl.c.Call(KitchenProcOutScalars, 0, nil, func(_d *marshal.Dec) {
		*a = _d.Int32()
		*b = _d.Uint32()
		*c = _d.Int64()
		*l = _d.Uint64()
		*f = _d.Bool()
		*g = _d.Byte()
		*h = _d.Float64()
	})
	return err
}

// InOutScalar calls the remote Kitchen.InOutScalar procedure.
//
//	x: INTEGER (VAR INOUT)
func (cl *KitchenClient) InOutScalar(x *int32) error {
	err := cl.c.Call(KitchenProcInOutScalar, 4, func(_e *marshal.Enc) {
		_e.PutInt32(*x)
	}, func(_d *marshal.Dec) {
		*x = _d.Int32()
	})
	return err
}

// FixedBoth calls the remote Kitchen.FixedBoth procedure.
//
//	src: ARRAY 32 OF CHAR (VAR IN)
//	dst: ARRAY 32 OF CHAR (VAR OUT)
func (cl *KitchenClient) FixedBoth(src []byte, dst []byte) error {
	if err := core.CheckLen("src", len(src), 32); err != nil {
		return err
	}
	if err := core.CheckLen("dst", len(dst), 32); err != nil {
		return err
	}
	err := cl.c.Call(KitchenProcFixedBoth, 32, func(_e *marshal.Enc) {
		_e.PutFixedBytes(src)
	}, func(_d *marshal.Dec) {
		_d.FixedBytes(dst)
	})
	return err
}

// FixedInOut calls the remote Kitchen.FixedInOut procedure.
//
//	buf: ARRAY 16 OF CHAR (VAR INOUT)
func (cl *KitchenClient) FixedInOut(buf []byte) error {
	if err := core.CheckLen("buf", len(buf), 16); err != nil {
		return err
	}
	err := cl.c.Call(KitchenProcFixedInOut, 16, func(_e *marshal.Enc) {
		_e.PutFixedBytes(buf)
	}, func(_d *marshal.Dec) {
		_d.FixedBytes(buf)
	})
	return err
}

// VarEcho calls the remote Kitchen.VarEcho procedure.
//
//	data: ARRAY OF CHAR
//	out: ARRAY OF CHAR (VAR OUT)
func (cl *KitchenClient) VarEcho(data []byte, out *[]byte) error {
	err := cl.c.Call(KitchenProcVarEcho, 4+len(data), func(_e *marshal.Enc) {
		_e.PutVarBytes(data)
	}, func(_d *marshal.Dec) {
		*out = _d.VarBytes()
	})
	return err
}

// VarInOut calls the remote Kitchen.VarInOut procedure.
//
//	v: ARRAY OF CHAR (VAR INOUT)
func (cl *KitchenClient) VarInOut(v *[]byte) error {
	err := cl.c.Call(KitchenProcVarInOut, 4+len(*v), func(_e *marshal.Enc) {
		_e.PutVarBytes(*v)
	}, func(_d *marshal.Dec) {
		*v = _d.VarBytes()
	})
	return err
}

// TextRoundTrip calls the remote Kitchen.TextRoundTrip procedure.
//
//	name: Text
func (cl *KitchenClient) TextRoundTrip(name *marshal.Text) (*marshal.Text, error) {
	var ret0 *marshal.Text
	err := cl.c.Call(KitchenProcTextRoundTrip, 0+marshal.TextWireSize(name), func(_e *marshal.Enc) {
		_e.PutText(name)
	}, func(_d *marshal.Dec) {
		ret0 = _d.GetText()
	})
	return ret0, err
}

// RealMath calls the remote Kitchen.RealMath procedure.
//
//	x: REAL
//	y: REAL
func (cl *KitchenClient) RealMath(x float64, y float64) (float64, error) {
	var ret0 float64
	err := cl.c.Call(KitchenProcRealMath, 16, func(_e *marshal.Enc) {
		_e.PutFloat64(x)
		_e.PutFloat64(y)
	}, func(_d *marshal.Dec) {
		ret0 = _d.Float64()
	})
	return ret0, err
}

// KitchenServer is implemented by the actual service; the generated
// server stub unmarshals each call's arguments, invokes the
// implementation, and marshals the results into the reply.
type KitchenServer interface {
	Scalars(a int32, b uint32, c int64, l uint64, f bool, g byte, h float64) (int64, error)
	OutScalars(a *int32, b *uint32, c *int64, l *uint64, f *bool, g *byte, h *float64) error
	InOutScalar(x *int32) error
	FixedBoth(src []byte, dst []byte) error
	FixedInOut(buf []byte) error
	VarEcho(data []byte, out *[]byte) error
	VarInOut(v *[]byte) error
	TextRoundTrip(name *marshal.Text) (*marshal.Text, error)
	RealMath(x float64, y float64) (float64, error)
}

// ExportKitchen builds the dispatchable interface for a node to export.
func ExportKitchen(impl KitchenServer) *core.Interface {
	iface := core.NewInterface(KitchenName, KitchenVersion)
	iface.Proc(KitchenProcScalars, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		a := _d.Int32()
		b := _d.Uint32()
		c := _d.Int64()
		l := _d.Uint64()
		f := _d.Bool()
		g := _d.Byte()
		h := _d.Float64()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		ret0, err := impl.Scalars(a, b, c, l, f, g, h)
		if err != nil {
			return nil, err
		}
		return core.Reply(8, func(_e *marshal.Enc) {
			_e.PutInt64(ret0)
		})
	})
	iface.Proc(KitchenProcOutScalars, func(_ transport.Addr, _ *marshal.Dec) ([]byte, error) {
		var a int32
		var b uint32
		var c int64
		var l uint64
		var f bool
		var g byte
		var h float64
		err := impl.OutScalars(&a, &b, &c, &l, &f, &g, &h)
		if err != nil {
			return nil, err
		}
		return core.Reply(34, func(_e *marshal.Enc) {
			_e.PutInt32(a)
			_e.PutUint32(b)
			_e.PutInt64(c)
			_e.PutUint64(l)
			_e.PutBool(f)
			_e.PutByte(g)
			_e.PutFloat64(h)
		})
	})
	iface.Proc(KitchenProcInOutScalar, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		x := _d.Int32()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.InOutScalar(&x)
		if err != nil {
			return nil, err
		}
		return core.Reply(4, func(_e *marshal.Enc) {
			_e.PutInt32(x)
		})
	})
	iface.Proc(KitchenProcFixedBoth, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		src := _d.AliasFixed(32)
		dst := make([]byte, 32)
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.FixedBoth(src, dst)
		if err != nil {
			return nil, err
		}
		return core.Reply(32, func(_e *marshal.Enc) {
			_e.PutFixedBytes(dst)
		})
	})
	iface.Proc(KitchenProcFixedInOut, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		buf := append([]byte(nil), _d.AliasFixed(16)...)
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.FixedInOut(buf)
		if err != nil {
			return nil, err
		}
		return core.Reply(16, func(_e *marshal.Enc) {
			_e.PutFixedBytes(buf)
		})
	})
	iface.Proc(KitchenProcVarEcho, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		data := _d.AliasVarBytes()
		var out []byte
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.VarEcho(data, &out)
		if err != nil {
			return nil, err
		}
		return core.Reply(4+len(out), func(_e *marshal.Enc) {
			_e.PutVarBytes(out)
		})
	})
	iface.Proc(KitchenProcVarInOut, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		v := _d.VarBytes()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		err := impl.VarInOut(&v)
		if err != nil {
			return nil, err
		}
		return core.Reply(4+len(v), func(_e *marshal.Enc) {
			_e.PutVarBytes(v)
		})
	})
	iface.Proc(KitchenProcTextRoundTrip, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		name := _d.GetText()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		ret0, err := impl.TextRoundTrip(name)
		if err != nil {
			return nil, err
		}
		return core.Reply(0+marshal.TextWireSize(ret0), func(_e *marshal.Enc) {
			_e.PutText(ret0)
		})
	})
	iface.Proc(KitchenProcRealMath, func(_ transport.Addr, _d *marshal.Dec) ([]byte, error) {
		x := _d.Float64()
		y := _d.Float64()
		if err := _d.Err(); err != nil {
			return nil, err
		}
		ret0, err := impl.RealMath(x, y)
		if err != nil {
			return nil, err
		}
		return core.Reply(8, func(_e *marshal.Enc) {
			_e.PutFloat64(ret0)
		})
	})
	return iface
}
