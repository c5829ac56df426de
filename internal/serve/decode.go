package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"
)

// This file is the request decoder of the window routes (predict, adapt and
// stream/adapt). It reads the body once into one buffer and parses it in
// one pass. Before parsing the windows array, a scan that checks its
// syntax counts its windows, rows and values, so every window value is
// stored in one []float64 allocated at its final size, and bytes that are
// not valid JSON never size an allocation. The rows and windows are
// three-index slices into it (len == cap), so an append to one row
// reallocates instead of overwriting its neighbour. Three allocations hold
// the values at any batch size.
//
// Nothing is pooled: stream.Enqueue keeps the decoded slices until the
// background fold, so recycled storage would corrupt queued windows.
//
// The observable behaviour is that of the json.Decoder it replaces:
// identical values (strconv.ParseFloat on grammar-checked numbers), keys
// matched exactly and then case-insensitively, later duplicate keys decoded
// on top of earlier ones, null leaving numbers, booleans and strings
// unchanged, the same syntax rules (including the nesting limit), and the
// same error codes. FuzzDecodeWindows checks all of this against
// encoding/json on arbitrary bodies.

// maxNestingDepth is encoding/json's nesting limit: a body nesting more
// arrays and objects than this is a syntax error.
const maxNestingDepth = 10000

// errTruncated reports a body that ends inside the JSON value.
var errTruncated = errors.New("unexpected end of JSON input")

// decodeWindowsBody reads a window request from body and decodes it into
// req. sizeHint is the request's Content-Length (-1 when unknown); maxBody
// is the cap body enforces. Empty and oversized batches are the caller's
// to reject.
func decodeWindowsBody(body io.Reader, sizeHint, maxBody int64, req *predictRequest) error {
	// An unknown or over-cap length starts the buffer small: a body that
	// can only end in body_too_large does not get the cap allocated up
	// front. A declared length is the client's claim, so it sizes the
	// buffer only up to maxInitialBody; longer bodies grow it as their
	// bytes arrive.
	if sizeHint < 0 || sizeHint > maxBody {
		sizeHint = min(512, maxBody)
	}
	data, readErr := readBody(body, int(min(sizeHint, maxInitialBody)))
	// A failed read only counts once the parse needs bytes past the ones
	// read: a syntax error within them is invalid_json, not body_too_large.
	var mb *http.MaxBytesError
	tooLarge := errors.As(readErr, &mb)
	errTooLarge := func() error {
		return &httpError{http.StatusRequestEntityTooLarge, codeBodyTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBody)}
	}
	p := parser{data: data, atEOF: readErr == nil}
	p.request(req)
	switch {
	case p.err == errTruncated && tooLarge:
		return errTooLarge()
	case p.err == errTruncated && readErr != nil:
		return &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + readErr.Error()}
	case p.err != nil:
		return &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + p.err.Error()}
	case p.typeErr != nil:
		return &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + p.typeErr.Error()}
	}
	// The body must be exactly one JSON value: anything but whitespace
	// after it (a concatenated second object, truncation garbage) fails.
	errTrailing := func() error {
		return &httpError{http.StatusBadRequest, codeTrailingData, "trailing data after JSON body"}
	}
	p.skipWS()
	if p.pos == len(data) {
		switch {
		case readErr == nil:
			return nil
		case tooLarge:
			return errTooLarge()
		}
		return errTrailing()
	}
	if !bytes.ContainsAny(data[p.pos:p.pos+1], "[]{}:,") {
		// The trailing check this replaces (json.Decoder.Token) reads a
		// trailing scalar whole, so one cut short by the cap is oversized.
		p.skipValue()
		if (p.err == errTruncated || p.err == nil && p.pos == len(data)) && tooLarge {
			return errTooLarge()
		}
	}
	return errTrailing()
}

// maxInitialBody caps the buffer allocated from a declared Content-Length
// before any body byte has arrived, so a request that sends only headers
// holds at most this much memory.
const maxInitialBody = 1 << 20

// readBody reads r to the end into one buffer of capacity sizeHint+1 (the
// extra byte observes io.EOF without growing), doubling it only when the
// body is longer than the hint.
func readBody(r io.Reader, sizeHint int) ([]byte, error) {
	buf := make([]byte, 0, sizeHint+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
	}
}

// parser walks one request body. err is the first syntax error, or
// errTruncated when the data ends inside the value; typeErr is the first
// well-formed value that does not fit predictRequest, which encoding/json
// only reports once the whole value has been read.
type parser struct {
	data  []byte
	pos   int
	depth int
	atEOF bool // data is the whole body (no read error after it)

	err     error
	typeErr error
}

func (p *parser) skipWS() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte without consuming it; at
// the end of the data it records errTruncated and reports false.
func (p *parser) next() (byte, bool) {
	p.skipWS()
	if p.pos >= len(p.data) {
		p.fail(errTruncated)
		return 0, false
	}
	return p.data[p.pos], true
}

func (p *parser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// syntax records a syntax error at the byte at p.pos.
func (p *parser) syntax(context string) {
	p.fail(fmt.Errorf("invalid character %q %s (offset %d)", p.data[p.pos], context, p.pos))
}

// mismatch records a value of the wrong type for its field.
func (p *parser) mismatch(format string, args ...any) {
	if p.typeErr == nil {
		p.typeErr = fmt.Errorf(format, args...)
	}
}

// push enters an array or object, enforcing the nesting limit.
func (p *parser) push() bool {
	p.depth++
	if p.depth > maxNestingDepth {
		p.fail(fmt.Errorf("exceeded max depth %d (offset %d)", maxNestingDepth, p.pos))
		return false
	}
	return true
}

// literal consumes the keyword word (true, false or null).
func (p *parser) literal(word string) bool {
	for i := range len(word) {
		if p.pos >= len(p.data) {
			p.fail(errTruncated)
			return false
		}
		if p.data[p.pos] != word[i] {
			p.syntax("in literal " + word)
			return false
		}
		p.pos++
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes one or more digits.
func (p *parser) digits(context string) bool {
	if p.pos >= len(p.data) {
		p.fail(errTruncated)
		return false
	}
	if !isDigit(p.data[p.pos]) {
		p.syntax(context)
		return false
	}
	i := p.pos + 1
	for i < len(p.data) && isDigit(p.data[i]) {
		i++
	}
	p.pos = i
	return true
}

// number consumes a number in JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (p *parser) number() ([]byte, bool) {
	start := p.pos
	if p.data[p.pos] == '-' {
		p.pos++
	}
	if p.pos < len(p.data) && p.data[p.pos] == '0' {
		p.pos++
	} else if !p.digits("in numeric literal") {
		return nil, false
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		if !p.digits("after decimal point in numeric literal") {
			return nil, false
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if !p.digits("in exponent of numeric literal") {
			return nil, false
		}
	}
	return p.data[start:p.pos], true
}

// float consumes a number into *f. A number out of float64 range (1e400)
// is a type error, as in encoding/json, and leaves *f unchanged.
func (p *parser) float(f *float64) {
	if b, ok := p.number(); ok {
		p.setFloat(b, f)
	}
}

// checkedFloat is float for a number whose grammar windowsShape checked:
// it only finds the number's end.
func (p *parser) checkedFloat(f *float64) {
	d, i := p.data, p.pos
	for i < len(d) && numberByte[d[i]] {
		i++
	}
	b := d[p.pos:i]
	p.pos = i
	p.setFloat(b, f)
}

// numberByte marks the bytes a JSON number is made of.
var numberByte = func() (t [256]bool) {
	for _, c := range []byte("0123456789+-.eE") {
		t[c] = true
	}
	return t
}()

// setFloat stores the number b, which is in JSON grammar, into *f.
func (p *parser) setFloat(b []byte, f *float64) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		p.mismatch("number %s out of float64 range", b)
		return
	}
	*f = v
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes a string and returns its literal, quotes included; plain
// reports that it holds no escapes and no non-ASCII bytes, so the bytes
// between the quotes are already the decoded string.
func (p *parser) str() (lit []byte, plain, ok bool) {
	d := p.data
	plain = true
	for i := p.pos + 1; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			lit = d[p.pos : i+1]
			p.pos = i + 1
			return lit, plain, true
		case c == '\\':
			plain = false
			i++
			if i >= len(d) {
				p.fail(errTruncated)
				return nil, false, false
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for range 4 {
					if i >= len(d) {
						p.fail(errTruncated)
						return nil, false, false
					}
					if !isHex(d[i]) {
						p.pos = i
						p.syntax("in \\u hexadecimal character escape")
						return nil, false, false
					}
					i++
				}
			default:
				p.pos = i
				p.syntax("in string escape code")
				return nil, false, false
			}
		case c < ' ':
			p.pos = i
			p.syntax("in string literal")
			return nil, false, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	p.fail(errTruncated)
	return nil, false, false
}

// unquote returns the decoded contents of a string literal str consumed.
// A literal that is not plain goes through encoding/json, which resolves
// escapes and surrogate pairs and turns a lone surrogate or invalid UTF-8
// into U+FFFD; only keys and the strategy string take that path, never a
// window value.
func unquote(lit []byte, plain bool) []byte {
	if plain {
		return lit[1 : len(lit)-1]
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		panic("serve: unquote of a string literal str accepted: " + err.Error())
	}
	return []byte(s)
}

// skipValue consumes and validates one value of any type.
func (p *parser) skipValue() {
	c, ok := p.next()
	if !ok {
		return
	}
	switch {
	case c == '{':
		p.members(func([]byte, bool) { p.skipValue() })
	case c == '[':
		if p.openArray() {
			for {
				if p.skipValue(); p.err != nil || !p.moreElems() {
					return
				}
			}
		}
	case c == '"':
		p.str()
	case c == 't':
		p.literal("true")
	case c == 'f':
		p.literal("false")
	case c == 'n':
		p.literal("null")
	case c == '-' || isDigit(c):
		p.number()
	default:
		p.syntax("looking for beginning of value")
	}
}

// members consumes an object, calling value with each member's key literal
// (see str) and p positioned at the member's value, which value consumes.
func (p *parser) members(value func(key []byte, plain bool)) {
	p.pos++
	if !p.push() {
		return
	}
	c, ok := p.next()
	if !ok {
		return
	}
	if c == '}' {
		p.pos++
		p.depth--
		return
	}
	for {
		if c != '"' {
			p.syntax("looking for beginning of object key string")
			return
		}
		key, plain, ok := p.str()
		if !ok || !p.colon() {
			return
		}
		if value(key, plain); p.err != nil {
			return
		}
		if c, ok = p.afterMember(); !ok {
			return
		}
	}
}

// colon consumes the ':' after an object key and positions p at the value.
func (p *parser) colon() bool {
	c, ok := p.next()
	if !ok {
		return false
	}
	if c != ':' {
		p.syntax("after object key")
		return false
	}
	p.pos++
	_, ok = p.next()
	return ok
}

// afterMember consumes the ',' or '}' after an object member. ok is true
// when another member follows; c is then its first byte.
func (p *parser) afterMember() (c byte, ok bool) {
	if c, ok = p.next(); !ok {
		return 0, false
	}
	switch c {
	case ',':
		p.pos++
		return p.next()
	case '}':
		p.pos++
		p.depth--
		return 0, false
	}
	p.syntax("after object key:value pair")
	return 0, false
}

// openArray consumes a '[' and reports whether an element follows, with p
// positioned at its first byte. An empty array is consumed whole.
func (p *parser) openArray() bool {
	p.pos++
	if !p.push() {
		return false
	}
	c, ok := p.next()
	if !ok {
		return false
	}
	if c == ']' {
		p.pos++
		p.depth--
		return false
	}
	return true
}

// moreElems consumes the ',' or ']' after an array element and reports
// whether another element follows, with p positioned at its first byte.
func (p *parser) moreElems() bool {
	c, ok := p.next()
	if !ok {
		return false
	}
	switch c {
	case ',':
		p.pos++
		_, ok = p.next()
		return ok
	case ']':
		p.pos++
		p.depth--
		return false
	}
	p.syntax("after array element")
	return false
}

// request decodes the top-level value into req.
func (p *parser) request(req *predictRequest) {
	c, ok := p.next()
	if !ok {
		return
	}
	switch c {
	case '{':
		p.object(req)
		return
	case 'n':
		p.literal("null") // decodes to the zero request
	default:
		p.mismatch("request body must be a JSON object")
		if p.skipValue(); c == '[' {
			return // an array ends at its ']'
		}
	}
	// A top-level scalar only ends at the byte after it, or at the end of
	// the body: one that fills the data read before a failed read is
	// incomplete.
	if p.err == nil && p.pos == len(p.data) && !p.atEOF {
		p.fail(errTruncated)
	}
}

// object decodes the request object's members. Keys match the fields the
// way encoding/json matches them: exactly, else case-insensitively.
func (p *parser) object(req *predictRequest) {
	p.members(func(lit []byte, plain bool) {
		switch key := unquote(lit, plain); {
		case bytes.EqualFold(key, []byte("windows")):
			req.Windows = p.windows(req.Windows)
		case bytes.EqualFold(key, []byte("source_only")):
			p.boolValue(&req.SourceOnly)
		case bytes.EqualFold(key, []byte("strategy")):
			p.stringValue(&req.Strategy)
		default:
			p.skipValue()
		}
	})
}

func (p *parser) boolValue(v *bool) {
	switch p.data[p.pos] {
	case 't':
		if p.literal("true") {
			*v = true
		}
	case 'f':
		if p.literal("false") {
			*v = false
		}
	case 'n':
		p.literal("null")
	default:
		p.mismatch("source_only must be a boolean")
		p.skipValue()
	}
}

func (p *parser) stringValue(v *string) {
	switch p.data[p.pos] {
	case '"':
		lit, plain, ok := p.str()
		if !ok {
			return
		}
		*v = string(unquote(lit, plain))
	case 'n':
		p.literal("null")
	default:
		p.mismatch("strategy must be a string")
		p.skipValue()
	}
}

// windows decodes the "windows" value. The common case, the first
// "windows" key holding a well-formed array of arrays of arrays of
// numbers, goes to flatWindows. Every other value (a later duplicate key,
// decoded on top of the first; null; a string, object or null inside; a
// syntax error; a body cut short) is first validated whole, as
// encoding/json validates before it decodes, and only then decoded through
// mergeSlice. So no allocation is sized from bytes that are not valid
// JSON, and a malformed value costs no more than its bytes.
func (p *parser) windows(cur [][][]float64) [][][]float64 {
	if cap(cur) == 0 && p.data[p.pos] == '[' {
		if nw, nr, nv, ok := p.windowsShape(); ok {
			return p.flatWindows(nw, nr, nv)
		}
	}
	q := *p
	if q.skipValue(); q.err != nil {
		*p = q
		return cur
	}
	return mergeSlice(p, cur, func(p *parser, win *[][]float64) {
		*win = mergeSlice(p, *win, func(p *parser, row *[]float64) {
			*row = mergeSlice(p, *row, (*parser).mergeFloat)
		})
	})
}

// windowsShape counts the windows, rows and values of the array at p.pos
// without consuming it. ok is true only when the array is complete within
// the data and well formed, with arrays of arrays of numbers as its
// elements; the counts are then exact.
func (p *parser) windowsShape() (windows, rows, values int, ok bool) {
	q := *p
	for moreWins := q.openArray(); moreWins; moreWins = q.moreElems() {
		if q.data[q.pos] != '[' {
			return 0, 0, 0, false
		}
		windows++
		for moreRows := q.openArray(); moreRows; moreRows = q.moreElems() {
			if q.data[q.pos] != '[' {
				return 0, 0, 0, false
			}
			rows++
			for moreVals := q.openArray(); moreVals; moreVals = q.moreElems() {
				if c := q.data[q.pos]; c != '-' && !isDigit(c) {
					return 0, 0, 0, false
				}
				if _, ok := q.number(); !ok {
					return 0, 0, 0, false
				}
				values++
			}
			if q.err != nil {
				return 0, 0, 0, false
			}
		}
		if q.err != nil {
			return 0, 0, 0, false
		}
	}
	return windows, rows, values, q.err == nil
}

// flatWindows decodes a windows array that windowsShape counted into one
// value array, one row-header array and one window-header array.
func (p *parser) flatWindows(nw, nr, nv int) [][][]float64 {
	vals := make([]float64, nv)
	rows := make([][]float64, nr)
	wins := make([][][]float64, nw)
	v, r, w := 0, 0, 0
	for moreWins := p.openArray(); moreWins; moreWins = p.moreElems() {
		r0 := r
		for moreRows := p.openArray(); moreRows; moreRows = p.moreElems() {
			v0 := v
			for moreVals := p.openArray(); moreVals; moreVals = p.moreElems() {
				p.checkedFloat(&vals[v])
				v++
			}
			rows[r] = vals[v0:v:v]
			r++
		}
		wins[w] = rows[r0:r:r]
		w++
	}
	return wins
}

// mergeSlice decodes an array (or null) into s the way encoding/json
// decodes into an existing slice: elements are decoded in place, growth
// keeps s[len:cap], and null or [] replace s. Only a value flatWindows
// does not take reaches it, once it is known to be valid JSON.
func mergeSlice[E any](p *parser, s []E, elem func(*parser, *E)) []E {
	switch p.data[p.pos] {
	case 'n':
		if p.literal("null") {
			return nil
		}
		return s
	case '[':
	default:
		p.mismatch("windows must be arrays of arrays of numbers")
		p.skipValue()
		return s
	}
	if !p.openArray() {
		if p.err != nil {
			return s
		}
		return []E{}
	}
	i := 0
	for {
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		elem(p, &s[i])
		i++
		if p.err != nil || !p.moreElems() {
			return s[:i]
		}
	}
}

// mergeFloat decodes one window value; null leaves it unchanged.
func (p *parser) mergeFloat(f *float64) {
	switch c := p.data[p.pos]; {
	case c == 'n':
		p.literal("null")
	case c == '-' || isDigit(c):
		p.float(f)
	default:
		p.mismatch("window values must be numbers")
		p.skipValue()
	}
}
