package filter

import (
	"fmt"

	"retina/internal/layers"
)

// Engine selects how the software sub-filters execute.
type Engine uint8

const (
	// EngineCompiled builds the sub-filters at subscription time: the
	// packet filter into a flat typed program, the connection and
	// session filters into closure trees (the production path).
	EngineCompiled Engine = iota
	// EngineInterpreted walks the trie generically per packet
	// (the Appendix B baseline).
	EngineInterpreted
)

// Program is a fully decomposed, executable filter: the predicate trie
// plus the four sub-filters generated from it.
type Program struct {
	Source string
	Trie   *Trie
	Rules  []FlowRule

	Conn    ConnFilterFunc
	Session SessionFilterFunc

	packet *packetProg // the software packet filter, either engine
	reg    *Registry
	engine Engine
}

// PacketWith evaluates the software packet filter with the caller's
// reusable scratch; the cores keep one scratch each on the hot path.
func (p *Program) PacketWith(pk *layers.Parsed, s *PacketScratch) Result {
	var r Result
	p.packet.evalInto(pk, s, &r)
	return r
}

// Options configures filter compilation.
type Options struct {
	// Registry supplies protocol modules; nil selects DefaultRegistry.
	Registry *Registry
	// Engine selects compiled or interpreted execution.
	Engine Engine
	// HW describes the NIC's flow-rule capabilities for hardware filter
	// generation; nil generates no rules (hardware filtering off).
	HW Capability
}

// Compile parses, decomposes and builds a filter program from source.
// The empty string compiles to a match-everything program.
func Compile(source string, opts Options) (*Program, error) {
	reg := opts.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	expr, err := Parse(source)
	if err != nil {
		return nil, err
	}
	pats, err := Expand(reg, ToDNF(expr))
	if err != nil {
		return nil, fmt.Errorf("filter %q: %w", source, err)
	}
	trie, err := BuildTrie(reg, pats)
	if err != nil {
		return nil, fmt.Errorf("filter %q: %w", source, err)
	}

	prog := &Program{Source: source, Trie: trie, reg: reg, engine: opts.Engine}
	switch opts.Engine {
	case EngineCompiled:
		if prog.packet, err = compilePacketProg(reg, trie); err != nil {
			return nil, err
		}
		if prog.Conn, err = CompileConnFilter(reg, trie); err != nil {
			return nil, err
		}
		if prog.Session, err = CompileSessionFilter(reg, trie); err != nil {
			return nil, err
		}
	case EngineInterpreted:
		in := NewInterpreter(reg, trie)
		prog.packet = &packetProg{interp: in}
		prog.Conn = in.ConnFilter()
		prog.Session = in.SessionFilter()
	default:
		return nil, fmt.Errorf("filter: unknown engine %d", opts.Engine)
	}
	if opts.HW != nil {
		prog.Rules = GenerateFlowRules(trie, opts.HW)
	}
	return prog, nil
}

// MustCompile is Compile panicking on error; for tests and examples with
// constant filter strings.
func MustCompile(source string, opts Options) *Program {
	p, err := Compile(source, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Registry returns the protocol registry the program was compiled with.
func (p *Program) Registry() *Registry { return p.reg }

// NeedsConnTracking reports whether the program requires stateful
// connection processing for any of its patterns.
func (p *Program) NeedsConnTracking() bool { return p.Trie.NeedsConnTracking() }

// ConnProtocols lists the application protocols the runtime must be able
// to probe and parse for this filter.
func (p *Program) ConnProtocols() []string { return p.Trie.ConnProtocols() }
