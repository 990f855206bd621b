package idl

import (
	"fmt"
	"go/format"
	"strconv"
	"strings"
)

// Generate emits Go caller and server stubs for the module into package
// pkg. The generated code depends only on the core, marshal, and transport
// packages, and consists of direct Put/Get statements per argument — no
// reflection and no interpreter, as on the Firefly.
func Generate(m *Module, pkg string) ([]byte, error) {
	g := &gen{m: m, pkg: pkg}
	return g.run()
}

type gen struct {
	m   *Module
	pkg string
	b   strings.Builder

	usesMarshal bool
}

func (g *gen) p(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// goType maps an IDL type and mode to the Go parameter type.
func goType(t Type, out bool) string {
	base := map[Kind]string{
		KInteger: "int32", KCardinal: "uint32",
		KLongint: "int64", KLongcard: "uint64",
		KBoolean: "bool", KChar: "byte", KReal: "float64",
		KText: "*marshal.Text",
	}
	switch t.Kind {
	case KFixedArray:
		return "[]byte" // length checked at runtime against the IDL size
	case KVarArray:
		if out {
			return "*[]byte"
		}
		return "[]byte"
	default:
		if out {
			return "*" + base[t.Kind]
		}
		return base[t.Kind]
	}
}

// putStmt emits the encoder statement for value expr of type t.
func putStmt(t Type, expr string) string {
	switch t.Kind {
	case KInteger:
		return "_e.PutInt32(" + expr + ")"
	case KCardinal:
		return "_e.PutUint32(" + expr + ")"
	case KLongint:
		return "_e.PutInt64(" + expr + ")"
	case KLongcard:
		return "_e.PutUint64(" + expr + ")"
	case KBoolean:
		return "_e.PutBool(" + expr + ")"
	case KChar:
		return "_e.PutByte(" + expr + ")"
	case KReal:
		return "_e.PutFloat64(" + expr + ")"
	case KText:
		return "_e.PutText(" + expr + ")"
	case KFixedArray:
		return "_e.PutFixedBytes(" + expr + ")"
	case KVarArray:
		return "_e.PutVarBytes(" + expr + ")"
	}
	panic("unreachable")
}

// getExpr emits the decoder expression for type t.
func getExpr(t Type) string {
	switch t.Kind {
	case KInteger:
		return "_d.Int32()"
	case KCardinal:
		return "_d.Uint32()"
	case KLongint:
		return "_d.Int64()"
	case KLongcard:
		return "_d.Uint64()"
	case KBoolean:
		return "_d.Bool()"
	case KChar:
		return "_d.Byte()"
	case KReal:
		return "_d.Float64()"
	case KText:
		return "_d.GetText()"
	case KVarArray:
		return "_d.VarBytes()"
	}
	panic("getExpr: " + t.String())
}

// sizeExpr returns the wire-size expression for value expr of type t.
func sizeExpr(t Type, expr string) (constant int, dynamic string) {
	if n, ok := t.FixedSize(); ok {
		return n, ""
	}
	switch t.Kind {
	case KVarArray:
		return 4, "len(" + expr + ")"
	case KText:
		return 0, "marshal.TextWireSize(" + expr + ")"
	}
	panic("sizeExpr: " + t.String())
}

// deref yields the value expression for a caller-side parameter.
func callerVal(p Param) string {
	if p.Mode.InResult() && p.Type.Scalar() {
		return "*" + p.Name
	}
	if p.Mode.InResult() && p.Type.Kind == KVarArray {
		return "*" + p.Name
	}
	return p.Name
}

func (g *gen) run() ([]byte, error) {
	m := g.m
	M := m.Name

	g.p("// Code generated by stubgen from the %s interface definition. DO NOT EDIT.", M)
	g.p("")
	g.p("// Package %s contains the automatically generated caller and server", g.pkg)
	g.p("// stubs for the %s interface (version %d).", M, m.Version)
	g.p("package %s", g.pkg)
	g.p("")
	headerEnd := g.b.Len()

	g.p("// Interface identity.")
	g.p("const (")
	g.p("\t%sName    = %q", M, M)
	g.p("\t%sVersion = uint32(%d)", M, m.Version)
	g.p(")")
	g.p("")
	g.p("// Procedure identifiers.")
	g.p("const (")
	for _, proc := range m.Procs {
		g.p("\t%sProc%s = uint16(%d)", M, proc.Name, proc.ID)
	}
	g.p(")")
	g.p("")

	g.callerStubs()
	g.serverStubs()

	code := g.b.String()
	imports := g.imports()
	out := code[:headerEnd] + imports + code[headerEnd:]
	formatted, err := format.Source([]byte(out))
	if err != nil {
		// A formatting failure is a generator bug; return the raw code so
		// the caller can see what went wrong.
		return []byte(out), fmt.Errorf("idl: generated code does not format: %w", err)
	}
	return formatted, nil
}

func (g *gen) imports() string {
	lines := []string{"\t\"fireflyrpc/internal/core\""}
	if g.usesMarshal {
		lines = append(lines, "\t\"fireflyrpc/internal/marshal\"")
	}
	lines = append(lines, "\t\"fireflyrpc/internal/transport\"")
	return "import (\n" + strings.Join(lines, "\n") + "\n)\n\n"
}

// callerStubs emits the client type and one method per procedure.
func (g *gen) callerStubs() {
	m := g.m
	M := m.Name
	g.p("// %sClient is the caller stub for a bound remote instance of the", M)
	g.p("// interface. Its methods may be called from any goroutine.")
	g.p("type %sClient struct{ c *core.Client }", M)
	g.p("")
	g.p("// New%sClient returns a caller stub on the binding.", M)
	g.p("func New%sClient(b *core.Binding) *%sClient { return &%sClient{c: b.NewClient()} }", M, M, M)
	g.p("")

	for _, proc := range m.Procs {
		g.callerMethod(proc)
	}
}

func (g *gen) callerMethod(proc *Proc) {
	M := g.m.Name

	// Signature.
	var params []string
	for _, p := range proc.Params {
		params = append(params, p.Name+" "+goType(p.Type, p.Mode == VarOut || p.Mode == VarInOut))
	}
	ret := "error"
	if proc.Return != nil {
		ret = "(" + goType(*proc.Return, false) + ", error)"
	}
	mode := func(p Param) string {
		if s := p.Mode.String(); s != "" {
			return " (" + s + ")"
		}
		return ""
	}
	g.p("// %s calls the remote %s.%s procedure.", proc.Name, M, proc.Name)
	for _, p := range proc.Params {
		g.p("//   %s: %s%s", p.Name, p.Type, mode(p))
	}
	g.p("func (cl *%sClient) %s(%s) %s {", M, proc.Name, strings.Join(params, ", "), ret)

	if proc.Return != nil {
		g.p("\tvar ret0 %s", goType(*proc.Return, false))
	}

	// Fixed-array length checks.
	for _, p := range proc.Params {
		if p.Type.Kind == KFixedArray {
			g.p("\tif err := core.CheckLen(%q, len(%s), %d); err != nil {", p.Name, p.Name, p.Type.N)
			if proc.Return != nil {
				g.p("\t\treturn ret0, err")
			} else {
				g.p("\t\treturn err")
			}
			g.p("\t}")
		}
	}

	// Argument size.
	constant := 0
	var dyn []string
	for _, p := range proc.Params {
		if !p.Mode.InCall() {
			continue
		}
		c, d := sizeExpr(p.Type, callerVal(p))
		constant += c
		if d != "" {
			dyn = append(dyn, d)
			if p.Type.Kind == KText {
				g.usesMarshal = true
			}
		}
	}
	size := strconv.Itoa(constant)
	if len(dyn) > 0 {
		size += " + " + strings.Join(dyn, " + ")
	}

	// Encoder closure.
	enc := "nil"
	var encBody []string
	for _, p := range proc.Params {
		if p.Mode.InCall() {
			encBody = append(encBody, "\t\t"+putStmt(p.Type, callerVal(p)))
		}
	}
	if len(encBody) > 0 {
		g.usesMarshal = true
		enc = "func(_e *marshal.Enc) {\n" + strings.Join(encBody, "\n") + "\n\t}"
	}

	// Decoder closure: return value first, then VAR OUT/INOUT params.
	dec := "nil"
	var decBody []string
	if proc.Return != nil {
		decBody = append(decBody, "\t\tret0 = "+getExpr(*proc.Return))
	}
	for _, p := range proc.Params {
		if !p.Mode.InResult() {
			continue
		}
		switch p.Type.Kind {
		case KFixedArray:
			decBody = append(decBody, "\t\t_d.FixedBytes("+p.Name+")")
		case KVarArray:
			decBody = append(decBody, "\t\t*"+p.Name+" = _d.VarBytes()")
		default:
			decBody = append(decBody, "\t\t*"+p.Name+" = "+getExpr(p.Type))
		}
	}
	if len(decBody) > 0 {
		g.usesMarshal = true
		dec = "func(_d *marshal.Dec) {\n" + strings.Join(decBody, "\n") + "\n\t}"
	}

	g.p("\terr := cl.c.Call(%sProc%s, %s, %s, %s)", M, proc.Name, size, enc, dec)
	if proc.Return != nil {
		g.p("\treturn ret0, err")
	} else {
		g.p("\treturn err")
	}
	g.p("}")
	g.p("")
}

// serverStubs emits the implementation interface and the Export function.
func (g *gen) serverStubs() {
	m := g.m
	M := m.Name

	g.p("// %sServer is implemented by the actual service; the generated", M)
	g.p("// server stub unmarshals each call's arguments, invokes the")
	g.p("// implementation, and marshals the results into the reply.")
	g.p("type %sServer interface {", M)
	for _, proc := range m.Procs {
		var params []string
		for _, p := range proc.Params {
			params = append(params, p.Name+" "+goType(p.Type, p.Mode == VarOut || p.Mode == VarInOut))
		}
		ret := "error"
		if proc.Return != nil {
			ret = "(" + goType(*proc.Return, false) + ", error)"
		}
		g.p("\t%s(%s) %s", proc.Name, strings.Join(params, ", "), ret)
	}
	g.p("}")
	g.p("")

	g.p("// Export%s builds the dispatchable interface for a node to export.", M)
	g.p("func Export%s(impl %sServer) *core.Interface {", M, M)
	g.p("\tiface := core.NewInterface(%sName, %sVersion)", M, M)
	for _, proc := range m.Procs {
		g.serverProc(proc)
	}
	g.p("\treturn iface")
	g.p("}")
	g.p("")
}

func (g *gen) serverProc(proc *Proc) {
	M := g.m.Name
	decName := "_"
	for _, p := range proc.Params {
		if p.Mode.InCall() {
			decName = "_d"
			break
		}
	}
	g.p("\tiface.Proc(%sProc%s, func(_ transport.Addr, %s *marshal.Dec) ([]byte, error) {", M, proc.Name, decName)
	g.usesMarshal = true

	// Unmarshal arguments.
	var callArgs []string
	for _, p := range proc.Params {
		switch {
		case p.Mode == ByValue, p.Mode == VarIn:
			switch p.Type.Kind {
			case KFixedArray:
				// VAR IN arrays are passed as addresses into the packet:
				// the server reads them in place, no copy.
				g.p("\t\t%s := _d.AliasFixed(%d)", p.Name, p.Type.N)
			case KVarArray:
				g.p("\t\t%s := _d.AliasVarBytes()", p.Name)
			default:
				g.p("\t\t%s := %s", p.Name, getExpr(p.Type))
			}
			callArgs = append(callArgs, p.Name)
		case p.Mode == VarOut:
			switch p.Type.Kind {
			case KFixedArray:
				g.p("\t\t%s := make([]byte, %d)", p.Name, p.Type.N)
				callArgs = append(callArgs, p.Name)
			case KVarArray:
				g.p("\t\tvar %s []byte", p.Name)
				callArgs = append(callArgs, "&"+p.Name)
			default:
				g.p("\t\tvar %s %s", p.Name, goType(p.Type, false))
				callArgs = append(callArgs, "&"+p.Name)
			}
		case p.Mode == VarInOut:
			switch p.Type.Kind {
			case KFixedArray:
				g.p("\t\t%s := append([]byte(nil), _d.AliasFixed(%d)...)", p.Name, p.Type.N)
				callArgs = append(callArgs, p.Name)
			case KVarArray:
				g.p("\t\t%s := _d.VarBytes()", p.Name)
				callArgs = append(callArgs, "&"+p.Name)
			default:
				g.p("\t\t%s := %s", p.Name, getExpr(p.Type))
				callArgs = append(callArgs, "&"+p.Name)
			}
		}
	}
	if decName == "_d" {
		g.p("\t\tif err := _d.Err(); err != nil {")
		g.p("\t\t\treturn nil, err")
		g.p("\t\t}")
	}

	// Invoke the implementation.
	if proc.Return != nil {
		g.p("\t\tret0, err := impl.%s(%s)", proc.Name, strings.Join(callArgs, ", "))
	} else {
		g.p("\t\terr := impl.%s(%s)", proc.Name, strings.Join(callArgs, ", "))
	}
	g.p("\t\tif err != nil {")
	g.p("\t\t\treturn nil, err")
	g.p("\t\t}")

	// Marshal results.
	constant := 0
	var dyn []string
	var encBody []string
	if proc.Return != nil {
		c, d := sizeExpr(*proc.Return, "ret0")
		constant += c
		if d != "" {
			dyn = append(dyn, d)
		}
		encBody = append(encBody, "\t\t\t"+putStmt(*proc.Return, "ret0"))
	}
	for _, p := range proc.Params {
		if !p.Mode.InResult() {
			continue
		}
		c, d := sizeExpr(p.Type, p.Name)
		constant += c
		if d != "" {
			dyn = append(dyn, d)
		}
		encBody = append(encBody, "\t\t\t"+putStmt(p.Type, p.Name))
	}
	if len(encBody) == 0 {
		g.p("\t\treturn nil, nil")
	} else {
		size := strconv.Itoa(constant)
		if len(dyn) > 0 {
			size += " + " + strings.Join(dyn, " + ")
		}
		g.p("\t\treturn core.Reply(%s, func(_e *marshal.Enc) {", size)
		for _, line := range encBody {
			g.p("%s", line)
		}
		g.p("\t\t})")
	}
	g.p("\t})")
}
