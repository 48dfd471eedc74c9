// Package filter implements Retina's multi-layer traffic filters: a
// Wireshark-inspired filter language, its compilation into a predicate
// trie, and the decomposition of that trie into four hierarchical
// sub-filters (hardware, software packet, connection, session) that each
// processing stage applies to discard out-of-scope traffic as early as
// possible (paper §4).
//
// Two execution engines are provided. The compiled engine builds the
// sub-filters once, at subscription time — the packet filter into a
// flat, typed program specialized per layer key, the connection and
// session filters into trees of monomorphic closures — the Go analogue
// of the paper's procedural-macro static code generation. The
// interpreted engine evaluates the same trie generically on every
// packet; it is the reference semantics and the Appendix B baseline.
package filter

import (
	"fmt"
	"net/netip"
	"regexp"
	"strconv"
	"strings"
)

// Kind enumerates the value types the filter language supports
// (Table 1's RHS values: int, string, ipv4, ipv6, int_range).
type Kind uint8

const (
	KindNone Kind = iota
	KindInt
	KindString
	KindIP
	KindIPPrefix
	KindIntRange
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindIP:
		return "ip"
	case KindIPPrefix:
		return "prefix"
	case KindIntRange:
		return "int_range"
	}
	return "none"
}

// Value is a constant on the right-hand side of a binary predicate.
type Value struct {
	Kind Kind
	Int  uint64
	Lo   uint64 // int range bounds, inclusive
	Hi   uint64
	Str  string
	IP   netip.Addr
	Pfx  netip.Prefix

	// Re holds the compiled regular expression for `matches` predicates.
	// It is compiled exactly once, when the filter is built — the
	// analogue of the lazily evaluated static regexes the paper's code
	// generator declares (§4.1, "Application-Layer Session Filter").
	Re *regexp.Regexp
}

// String renders the value in filter-language syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatUint(v.Int, 10)
	case KindString:
		return "'" + v.Str + "'"
	case KindIP:
		return v.IP.String()
	case KindIPPrefix:
		return v.Pfx.String()
	case KindIntRange:
		return fmt.Sprintf("%d..%d", v.Lo, v.Hi)
	}
	return "<none>"
}

// ParseValue interprets a literal token as a typed value. Quoted string
// content arrives with quotes already stripped (isString true).
func ParseValue(tok string, isString bool) (Value, error) {
	if isString {
		return Value{Kind: KindString, Str: tok}, nil
	}
	if lo, hi, ok := strings.Cut(tok, ".."); ok {
		l, err1 := parseUint(lo)
		h, err2 := parseUint(hi)
		if err1 != nil || err2 != nil {
			return Value{}, fmt.Errorf("filter: bad int range %q", tok)
		}
		if l > h {
			return Value{}, fmt.Errorf("filter: empty int range %q", tok)
		}
		return Value{Kind: KindIntRange, Lo: l, Hi: h}, nil
	}
	if n, err := parseUint(tok); err == nil {
		return Value{Kind: KindInt, Int: n}, nil
	}
	if pfx, err := netip.ParsePrefix(tok); err == nil {
		return Value{Kind: KindIPPrefix, Pfx: pfx.Masked()}, nil
	}
	if ip, err := netip.ParseAddr(tok); err == nil {
		return Value{Kind: KindIP, IP: ip}, nil
	}
	return Value{}, fmt.Errorf("filter: cannot parse value %q", tok)
}

func parseUint(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// Op enumerates predicate operators.
type Op uint8

const (
	OpTrue Op = iota // unary protocol predicate ("ipv4", "tls")
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn      // membership in int range or IP prefix
	OpMatches // regular-expression match (aliases: ~, matches)
)

// String renders the operator in filter-language syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIn:
		return "in"
	case OpMatches:
		return "matches"
	}
	return ""
}

// Predicate is a single constraint: a unary protocol match (Op == OpTrue,
// Field empty) or a binary comparison of a protocol field to a constant.
type Predicate struct {
	Proto string
	Field string
	Op    Op
	Val   Value
}

// Unary reports whether p matches an entity rather than a field value.
func (p Predicate) Unary() bool { return p.Op == OpTrue }

// String renders the predicate in filter-language syntax.
func (p Predicate) String() string {
	if p.Unary() {
		return p.Proto
	}
	return fmt.Sprintf("%s.%s %s %s", p.Proto, p.Field, p.Op, p.Val)
}

// Equal reports semantic equality between predicates (regex compared by
// source pattern).
func (p Predicate) Equal(q Predicate) bool {
	if p.Proto != q.Proto || p.Field != q.Field || p.Op != q.Op || p.Val.Kind != q.Val.Kind {
		return false
	}
	a, b := p.Val, q.Val
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindString:
		return a.Str == b.Str
	case KindIP:
		return a.IP == b.IP
	case KindIPPrefix:
		return a.Pfx == b.Pfx
	case KindIntRange:
		return a.Lo == b.Lo && a.Hi == b.Hi
	}
	return true
}

// compareInt evaluates lhs <op> rhs for integer kinds.
func compareInt(lhs uint64, op Op, v Value) bool {
	switch op {
	case OpEq:
		return lhs == v.Int
	case OpNe:
		return lhs != v.Int
	case OpLt:
		return lhs < v.Int
	case OpLe:
		return lhs <= v.Int
	case OpGt:
		return lhs > v.Int
	case OpGe:
		return lhs >= v.Int
	case OpIn:
		return lhs >= v.Lo && lhs <= v.Hi
	}
	return false
}

// compareString evaluates lhs <op> rhs for string kinds.
func compareString(lhs string, op Op, v Value) bool {
	switch op {
	case OpEq:
		return lhs == v.Str
	case OpNe:
		return lhs != v.Str
	case OpMatches:
		return v.Re != nil && v.Re.MatchString(lhs)
	}
	return false
}

// compareIP evaluates lhs <op> rhs for address kinds.
func compareIP(lhs netip.Addr, op Op, v Value) bool {
	switch op {
	case OpEq:
		return v.Kind == KindIP && lhs == v.IP
	case OpNe:
		return v.Kind == KindIP && lhs != v.IP
	case OpIn:
		return v.Kind == KindIPPrefix && v.Pfx.Contains(lhs)
	}
	return false
}
