package rules

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// sexpr is a parsed s-expression node: either an atom (Value) or a list.
type sexpr struct {
	atom *Value
	list []sexpr
	line int
}

func (e sexpr) isList() bool { return e.atom == nil }

func (e sexpr) String() string {
	if e.atom != nil {
		return e.atom.String()
	}
	parts := make([]string, len(e.list))
	for i, c := range e.list {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// head returns the leading symbol of a list, or "".
func (e sexpr) head() string {
	if e.isList() && len(e.list) > 0 && e.list[0].atom != nil && e.list[0].atom.Kind == SymbolKind {
		return e.list[0].atom.Sym
	}
	return ""
}

type reader struct {
	src  []rune
	pos  int
	line int
}

// readAll parses a whole source text into top-level s-expressions.
// Comments run from ';' to end of line.
func readAll(src string) ([]sexpr, error) {
	r := &reader{src: []rune(src), line: 1}
	var out []sexpr
	for {
		r.skipSpace()
		if r.eof() {
			return out, nil
		}
		e, err := r.read()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

func (r *reader) eof() bool { return r.pos >= len(r.src) }

func (r *reader) peek() rune { return r.src[r.pos] }

func (r *reader) next() rune {
	c := r.src[r.pos]
	r.pos++
	if c == '\n' {
		r.line++
	}
	return c
}

func (r *reader) skipSpace() {
	for !r.eof() {
		c := r.peek()
		switch {
		case c == ';':
			for !r.eof() && r.peek() != '\n' {
				r.next()
			}
		case unicode.IsSpace(c):
			r.next()
		default:
			return
		}
	}
}

func (r *reader) errf(format string, args ...any) error {
	return fmt.Errorf("rules: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

func (r *reader) read() (sexpr, error) {
	r.skipSpace()
	if r.eof() {
		return sexpr{}, r.errf("unexpected end of input")
	}
	line := r.line
	switch c := r.peek(); {
	case c == '(':
		r.next()
		var list []sexpr
		for {
			r.skipSpace()
			if r.eof() {
				return sexpr{}, r.errf("unclosed '(' opened at line %d", line)
			}
			if r.peek() == ')' {
				r.next()
				return sexpr{list: list, line: line}, nil
			}
			child, err := r.read()
			if err != nil {
				return sexpr{}, err
			}
			list = append(list, child)
		}
	case c == ')':
		return sexpr{}, r.errf("unexpected ')'")
	case c == '"':
		r.next()
		var sb strings.Builder
		for {
			if r.eof() {
				return sexpr{}, r.errf("unterminated string")
			}
			c := r.next()
			if c == '"' {
				v := Str(sb.String())
				return sexpr{atom: &v, line: line}, nil
			}
			if c == '\\' && !r.eof() {
				c = r.next()
				switch c {
				case 'n':
					c = '\n'
				case 't':
					c = '\t'
				}
			}
			sb.WriteRune(c)
		}
	default:
		var sb strings.Builder
		for !r.eof() {
			c := r.peek()
			if unicode.IsSpace(c) || c == '(' || c == ')' || c == ';' || c == '"' {
				break
			}
			sb.WriteRune(r.next())
		}
		tok := sb.String()
		if tok == "" {
			return sexpr{}, r.errf("empty token")
		}
		if mayBeNumber(tok) {
			if f, err := strconv.ParseFloat(tok, 64); err == nil {
				v := Num(f)
				return sexpr{atom: &v, line: line}, nil
			}
		}
		v := Sym(tok)
		return sexpr{atom: &v, line: line}, nil
	}
}

// mayBeNumber reports whether tok, after an optional sign, starts with a
// digit, '.', or the first letter of "inf"/"infinity"/"nan". Every string
// strconv.ParseFloat accepts does, so symbols skip the failing parse and
// its error allocation.
func mayBeNumber(tok string) bool {
	if tok[0] == '+' || tok[0] == '-' {
		tok = tok[1:]
	}
	return tok != "" && strings.IndexByte("0123456789.iInN", tok[0]) >= 0
}
