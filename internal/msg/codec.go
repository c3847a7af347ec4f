package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"softqos/internal/telemetry"
)

// Every management frame on every transport is one binary frame: magic
// byte, version byte, uvarint payload length, payload (see docs/WIRE.md
// for the layout).
const (
	// binMagic opens every frame. A stream whose next byte is anything
	// else is not speaking this protocol and cannot be resynced.
	binMagic = 0xBF
	// binVersion is the current payload layout version.
	binVersion = 1
	// MaxFrameBytes caps a frame's payload length. Senders refuse to
	// encode larger payloads; receivers reject larger length claims
	// before any allocation, so a corrupt or hostile length prefix
	// cannot balloon memory.
	MaxFrameBytes = 1 << 20
)

// Typed codec errors. Transports and fuzzers distinguish these from
// generic failures: a truncated frame on a stream means "read more",
// while a missing magic, trailing bytes or a bad version mean the peer
// is broken.
var (
	// ErrNotBinary: the buffer or stream does not start with the magic.
	ErrNotBinary = errors.New("msg: not a binary frame")
	// ErrBadVersion: the frame's version byte is unknown to this node.
	ErrBadVersion = errors.New("msg: unsupported binary frame version")
	// ErrFrameTooBig: the payload length exceeds MaxFrameBytes.
	ErrFrameTooBig = errors.New("msg: binary frame exceeds size cap")
	// ErrTruncated: the buffer ends before the declared frame does.
	ErrTruncated = errors.New("msg: truncated binary frame")
	// ErrTrailingBytes: bytes follow a complete frame in a buffer that
	// should contain exactly one frame.
	ErrTrailingBytes = errors.New("msg: trailing bytes after binary frame")
	// ErrBadKind: the payload names a message kind this node lacks.
	ErrBadKind = errors.New("msg: unknown binary message kind")
)

// Binary payload kind bytes, one per management message type.
const (
	kindRegister         = 1
	kindPolicySet        = 2
	kindViolation        = 3
	kindQuery            = 4
	kindReport           = 5
	kindAlarm            = 6
	kindDirective        = 7
	kindAck              = 8
	kindNack             = 9
	kindHeartbeat        = 10
	kindAlarmBatch       = 11
	kindTelemetrySummary = 12
	kindPolicyDelta      = 13
)

// kindTags is the one kind→tag table: the type tag names each kind in
// per-type metrics, fault rules and drop reports.
var kindTags = [...]string{
	kindRegister:         "register",
	kindPolicySet:        "policyset",
	kindViolation:        "violation",
	kindQuery:            "query",
	kindReport:           "report",
	kindAlarm:            "alarm",
	kindDirective:        "directive",
	kindAck:              "ack",
	kindNack:             "nack",
	kindHeartbeat:        "heartbeat",
	kindAlarmBatch:       "alarmbatch",
	kindTelemetrySummary: "telemetrysummary",
	kindPolicyDelta:      "policydelta",
}

// allTypeTags returns every kind's tag in kind order, for registering
// per-type counters up front.
func allTypeTags() []string { return kindTags[1:] }

func binKind(body any) (byte, error) {
	switch body.(type) {
	case Register, *Register:
		return kindRegister, nil
	case PolicySet, *PolicySet:
		return kindPolicySet, nil
	case Violation, *Violation:
		return kindViolation, nil
	case Query, *Query:
		return kindQuery, nil
	case Report, *Report:
		return kindReport, nil
	case Alarm, *Alarm:
		return kindAlarm, nil
	case Directive, *Directive:
		return kindDirective, nil
	case Ack, *Ack:
		return kindAck, nil
	case Nack, *Nack:
		return kindNack, nil
	case Heartbeat, *Heartbeat:
		return kindHeartbeat, nil
	case AlarmBatch, *AlarmBatch:
		return kindAlarmBatch, nil
	case TelemetrySummary, *TelemetrySummary:
		return kindTelemetrySummary, nil
	case PolicyDelta, *PolicyDelta:
		return kindPolicyDelta, nil
	default:
		return 0, fmt.Errorf("msg: unknown body type %T", body)
	}
}

// TypeTag returns the type tag for a message body ("violation",
// "heartbeat", ...), or an error for an unknown body type. Fault
// injection and other transport middleware select messages by it.
func TypeTag(body any) (string, error) { return typeTag(body) }

func typeTag(body any) (string, error) {
	k, err := binKind(body)
	if err != nil {
		return "", err
	}
	return kindTags[k], nil
}

// wireBufPool recycles frame buffers between sends. Socket transports
// encode into a pooled buffer, write it and return it, so the
// steady-state send path allocates nothing for the frame. The pools
// hold pointers: putting a slice header in an interface would allocate.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getWireBuf() *[]byte { return wireBufPool.Get().(*[]byte) }

// putWireBuf returns p to the pool, keeping b (p's buffer, possibly
// grown) for reuse.
func putWireBuf(p *[]byte, b []byte) {
	*p = b[:0]
	wireBufPool.Put(p)
}

// keyPool recycles the scratch slices used to sort map keys during
// encoding (maps are key-sorted so equal messages encode to equal bytes
// on every node).
var keyPool = sync.Pool{New: func() any { k := make([]string, 0, 16); return &k }}

// MarshalWire encodes one routed frame, including the full
// magic/version/length header. It encodes into a pooled buffer and
// returns an exact-size copy, so the frame is its one allocation.
func MarshalWire(to string, m Message) ([]byte, error) {
	buf := getWireBuf()
	frame, err := appendBinaryFrame((*buf)[:0], to, m)
	if err != nil {
		wireBufPool.Put(buf)
		return nil, err
	}
	out := bytes.Clone(frame)
	putWireBuf(buf, frame)
	return out, nil
}

// ---------------------------------------------------------------------------
// Binary encode

// appendBinaryFrame appends the framed encoding of m to dst. A payload
// larger than MaxFrameBytes fails with ErrFrameTooBig: every receiver
// would reject it and drop the connection.
func appendBinaryFrame(dst []byte, to string, m Message) ([]byte, error) {
	dst = append(dst, binMagic, binVersion)
	at := len(dst)
	dst, err := appendBinaryPayload(dst, to, m)
	if err != nil {
		return nil, err
	}
	n := len(dst) - at
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	// The payload was encoded in place; shift it right to open room for
	// its length prefix.
	var prefix [binary.MaxVarintLen64]byte
	h := uvarintLen(uint64(n))
	dst = append(dst, prefix[:h]...)
	copy(dst[at+h:], dst[at:at+n])
	binary.PutUvarint(dst[at:], uint64(n))
	return dst, nil
}

// modeledFrameLen returns the length frame — the encoding of (to, m) —
// would have with an empty destination and no trace context. Byte
// counters that must not move with addressing or tracing (the
// deterministic msg.bus.bytes) report this length, so they are derived
// from the one encode that also decides whether m fits in a frame.
func modeledFrameLen(frame []byte, to string, tc telemetry.TraceContext) int {
	n, _ := binary.Uvarint(frame[2:])
	p := int(n) - (uvarintLen(uint64(len(to))) + len(to)) + uvarintLen(0)
	if tc.Valid() {
		var span [binary.MaxVarintLen64]byte
		p -= uvarintLen(uint64(len(tc.TraceID))) + len(tc.TraceID) +
			binary.PutVarint(span[:], int64(tc.Span))
	}
	return 2 + uvarintLen(uint64(p)) + p
}

func appendBinaryPayload(dst []byte, to string, m Message) ([]byte, error) {
	kind, err := binKind(m.Body)
	if err != nil {
		return nil, err
	}
	dst = append(dst, kind)
	dst = appendBinString(dst, m.From)
	dst = appendBinString(dst, to)
	if m.Trace.Valid() {
		dst = append(dst, 1)
		dst = appendBinString(dst, m.Trace.TraceID)
		dst = binary.AppendVarint(dst, int64(m.Trace.Span))
	} else {
		dst = append(dst, 0)
	}
	switch b := m.Body.(type) {
	case Register:
		return appendBinRegister(dst, &b), nil
	case *Register:
		return appendBinRegister(dst, b), nil
	case PolicySet:
		return appendBinPolicySet(dst, &b), nil
	case *PolicySet:
		return appendBinPolicySet(dst, b), nil
	case Violation:
		return appendBinViolation(dst, &b), nil
	case *Violation:
		return appendBinViolation(dst, b), nil
	case Query:
		return appendBinQuery(dst, &b), nil
	case *Query:
		return appendBinQuery(dst, b), nil
	case Report:
		return appendBinReport(dst, &b), nil
	case *Report:
		return appendBinReport(dst, b), nil
	case Alarm:
		return appendBinAlarm(dst, &b), nil
	case *Alarm:
		return appendBinAlarm(dst, b), nil
	case Directive:
		return appendBinDirective(dst, &b), nil
	case *Directive:
		return appendBinDirective(dst, b), nil
	case Ack:
		return appendBinAck(dst, &b), nil
	case *Ack:
		return appendBinAck(dst, b), nil
	case Nack:
		return appendBinNack(dst, &b), nil
	case *Nack:
		return appendBinNack(dst, b), nil
	case Heartbeat:
		return appendBinHeartbeat(dst, &b), nil
	case *Heartbeat:
		return appendBinHeartbeat(dst, b), nil
	case AlarmBatch:
		return appendBinAlarmBatch(dst, &b), nil
	case *AlarmBatch:
		return appendBinAlarmBatch(dst, b), nil
	case TelemetrySummary:
		return appendBinTelemetrySummary(dst, &b), nil
	case *TelemetrySummary:
		return appendBinTelemetrySummary(dst, b), nil
	case PolicyDelta:
		return appendBinPolicyDelta(dst, &b), nil
	case *PolicyDelta:
		return appendBinPolicyDelta(dst, b), nil
	}
	return nil, fmt.Errorf("msg: unknown body type %T", m.Body)
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBinBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendBinMap encodes a string→float64 map with keys sorted, so the
// encoding is a pure function of the map's contents.
func appendBinMap(dst []byte, m map[string]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	kp := keyPool.Get().(*[]string)
	keys := (*kp)[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendBinString(dst, k)
		dst = appendBinF64(dst, m[k])
	}
	*kp = keys[:0]
	keyPool.Put(kp)
	return dst
}

func appendBinStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendBinString(dst, s)
	}
	return dst
}

func appendBinIdentity(dst []byte, id *Identity) []byte {
	dst = appendBinString(dst, id.Host)
	dst = binary.AppendVarint(dst, int64(id.PID))
	dst = appendBinString(dst, id.Executable)
	dst = appendBinString(dst, id.Application)
	return appendBinString(dst, id.UserRole)
}

func appendBinRegister(dst []byte, b *Register) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return appendBinStrings(dst, b.Sensors)
}

func appendBinPolicySet(dst []byte, b *PolicySet) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return appendBinPolicies(dst, b.Policies)
}

// appendBinPolicies encodes a PolicySpec list — the shared body of
// PolicySet and PolicyDelta frames.
func appendBinPolicies(dst []byte, policies []PolicySpec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(policies)))
	for i := range policies {
		p := &policies[i]
		dst = appendBinString(dst, p.Name)
		dst = appendBinString(dst, p.Connective)
		dst = binary.AppendUvarint(dst, uint64(len(p.Conditions)))
		for _, c := range p.Conditions {
			dst = appendBinString(dst, c.Attribute)
			dst = appendBinString(dst, c.Sensor)
			dst = appendBinString(dst, c.Op)
			dst = appendBinF64(dst, c.Value)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Actions)))
		for _, a := range p.Actions {
			dst = appendBinString(dst, a.Target)
			dst = appendBinString(dst, a.Op)
			dst = appendBinStrings(dst, a.Args)
		}
	}
	return dst
}

func appendBinPolicyDelta(dst []byte, b *PolicyDelta) []byte {
	dst = binary.AppendUvarint(dst, b.Generation)
	dst = binary.AppendUvarint(dst, b.Prev)
	dst = appendBinString(dst, b.Executable)
	dst = appendBinString(dst, b.Scope)
	dst = appendBinStrings(dst, b.Hosts)
	dst = appendBinPolicies(dst, b.Policies)
	return appendBinString(dst, b.Reason)
}

func appendBinViolation(dst []byte, b *Violation) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Policy)
	dst = appendBinMap(dst, b.Readings)
	return appendBinBool(dst, b.Overshoot)
}

func appendBinQuery(dst []byte, b *Query) []byte {
	dst = appendBinString(dst, b.From)
	dst = appendBinStrings(dst, b.Keys)
	return appendBinString(dst, b.Ref)
}

func appendBinReport(dst []byte, b *Report) []byte {
	dst = appendBinString(dst, b.Host)
	dst = appendBinMap(dst, b.Values)
	return appendBinString(dst, b.Ref)
}

func appendBinAlarm(dst []byte, b *Alarm) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Policy)
	dst = appendBinMap(dst, b.Readings)
	return appendBinString(dst, b.Suspect)
}

func appendBinDirective(dst []byte, b *Directive) []byte {
	dst = appendBinString(dst, b.From)
	dst = appendBinString(dst, b.Action)
	dst = appendBinString(dst, b.Target)
	return appendBinF64(dst, b.Amount)
}

func appendBinAck(dst []byte, b *Ack) []byte {
	dst = appendBinString(dst, b.Ref)
	dst = appendBinBool(dst, b.OK)
	return appendBinString(dst, b.Err)
}

func appendBinNack(dst []byte, b *Nack) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Ref)
	return appendBinString(dst, b.Reason)
}

func appendBinHeartbeat(dst []byte, b *Heartbeat) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return binary.AppendUvarint(dst, b.Seq)
}

func appendBinAlarmBatch(dst []byte, b *AlarmBatch) []byte {
	dst = appendBinString(dst, b.Tier)
	dst = binary.AppendUvarint(dst, uint64(len(b.Alarms)))
	for i := range b.Alarms {
		e := &b.Alarms[i]
		dst = appendBinAlarm(dst, &e.Alarm)
		dst = binary.AppendVarint(dst, int64(e.Count))
		dst = binary.AppendVarint(dst, int64(e.Severity))
	}
	return appendBinMap(dst, b.Summary)
}

func appendBinTelemetrySummary(dst []byte, b *TelemetrySummary) []byte {
	dst = appendBinString(dst, b.Tier)
	dst = appendBinString(dst, b.Source)
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = binary.AppendUvarint(dst, b.Hosts)
	dst = appendBinMap(dst, b.Counters)
	dst = appendBinMap(dst, b.Maxima)
	dst = binary.AppendUvarint(dst, uint64(len(b.Sketches)))
	for i := range b.Sketches {
		s := &b.Sketches[i]
		dst = appendBinString(dst, s.Name)
		dst = binary.AppendUvarint(dst, s.Sketch.Count)
		dst = appendBinF64(dst, s.Sketch.Sum)
		dst = appendBinF64(dst, s.Sketch.Min)
		dst = appendBinF64(dst, s.Sketch.Max)
		dst = binary.AppendUvarint(dst, s.Sketch.Zero)
		dst = binary.AppendVarint(dst, int64(s.Sketch.Base))
		dst = binary.AppendUvarint(dst, uint64(len(s.Sketch.Counts)))
		for _, c := range s.Sketch.Counts {
			dst = binary.AppendUvarint(dst, c)
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Binary decode

// UnmarshalWire decodes one complete frame: header checks first, then
// the payload. The buffer must contain exactly one frame; every length
// is validated against the bytes actually present before any allocation
// sized from it, and every error wraps one of the typed errors above.
func UnmarshalWire(data []byte) (to string, m Message, err error) {
	if len(data) == 0 || data[0] != binMagic {
		return "", Message{}, ErrNotBinary
	}
	if len(data) < 2 {
		return "", Message{}, ErrTruncated
	}
	if data[1] != binVersion {
		return "", Message{}, fmt.Errorf("%w: %d", ErrBadVersion, data[1])
	}
	n, used := binary.Uvarint(data[2:])
	if used <= 0 {
		return "", Message{}, ErrTruncated
	}
	if n > MaxFrameBytes {
		return "", Message{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	payload := data[2+used:]
	if uint64(len(payload)) < n {
		return "", Message{}, ErrTruncated
	}
	if uint64(len(payload)) > n {
		return "", Message{}, fmt.Errorf("%w: %d extra", ErrTrailingBytes, uint64(len(payload))-n)
	}
	return unmarshalBinaryPayload(payload)
}

// binReader is a bounds-checked cursor over a binary payload. The first
// decode error sticks; every later read returns zero values, so decoders
// can run straight-line and check err once.
type binReader struct {
	buf []byte
	pos int
	err error
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

func (r *binReader) boolean() bool { return r.u8() != 0 }

func (r *binReader) f64map() map[string]float64 {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	// Each entry costs at least 1 (key length) + 8 (value) bytes, so a
	// count the remaining bytes cannot hold is corrupt, not a big alloc.
	if n > uint64(len(r.buf)-r.pos)/9 {
		r.fail(ErrTruncated)
		return nil
	}
	m := make(map[string]float64, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.f64()
	}
	if r.err != nil {
		return nil
	}
	return m
}

func (r *binReader) strs() []string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) { // each entry costs >= 1 byte
		r.fail(ErrTruncated)
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		ss = append(ss, r.str())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// policies decodes the PolicySpec list shared by PolicySet and
// PolicyDelta payloads, with the same per-entry minimum-byte-cost
// bounds checks as every other repeated structure.
func (r *binReader) policies() []PolicySpec {
	np := r.uvarint()
	if r.err != nil || np == 0 {
		return nil
	}
	if np > uint64(len(r.buf)-r.pos) { // each policy costs >= 1 byte
		r.fail(ErrTruncated)
		return nil
	}
	var policies []PolicySpec
	for i := uint64(0); i < np && r.err == nil; i++ {
		p := PolicySpec{Name: r.str(), Connective: r.str()}
		nc := r.uvarint()
		if nc > uint64(len(r.buf)-r.pos)/11 { // >= 3 len bytes + 8 value bytes
			r.fail(ErrTruncated)
			break
		}
		for j := uint64(0); j < nc && r.err == nil; j++ {
			p.Conditions = append(p.Conditions, CondSpec{
				Attribute: r.str(), Sensor: r.str(), Op: r.str(), Value: r.f64()})
		}
		na := r.uvarint()
		if na > uint64(len(r.buf)-r.pos)/3 { // >= 3 len bytes
			r.fail(ErrTruncated)
			break
		}
		for j := uint64(0); j < na && r.err == nil; j++ {
			p.Actions = append(p.Actions, ActionSpec{
				Target: r.str(), Op: r.str(), Args: r.strs()})
		}
		policies = append(policies, p)
	}
	if r.err != nil {
		return nil
	}
	return policies
}

func (r *binReader) identity() Identity {
	return Identity{
		Host:        r.str(),
		PID:         int(r.varint()),
		Executable:  r.str(),
		Application: r.str(),
		UserRole:    r.str(),
	}
}

func unmarshalBinaryPayload(payload []byte) (string, Message, error) {
	r := &binReader{buf: payload}
	kind := r.u8()
	from := r.str()
	to := r.str()
	var tc telemetry.TraceContext
	if r.boolean() {
		tc.TraceID = r.str()
		tc.Span = int(r.varint())
	}
	var body any
	switch kind {
	case kindRegister:
		body = &Register{ID: r.identity(), Sensors: r.strs()}
	case kindPolicySet:
		body = &PolicySet{ID: r.identity(), Policies: r.policies()}
	case kindPolicyDelta:
		body = &PolicyDelta{Generation: r.uvarint(), Prev: r.uvarint(),
			Executable: r.str(), Scope: r.str(), Hosts: r.strs(),
			Policies: r.policies(), Reason: r.str()}
	case kindViolation:
		body = &Violation{ID: r.identity(), Policy: r.str(), Readings: r.f64map(), Overshoot: r.boolean()}
	case kindQuery:
		body = &Query{From: r.str(), Keys: r.strs(), Ref: r.str()}
	case kindReport:
		body = &Report{Host: r.str(), Values: r.f64map(), Ref: r.str()}
	case kindAlarm:
		body = &Alarm{ID: r.identity(), Policy: r.str(), Readings: r.f64map(), Suspect: r.str()}
	case kindDirective:
		body = &Directive{From: r.str(), Action: r.str(), Target: r.str(), Amount: r.f64()}
	case kindAck:
		body = &Ack{Ref: r.str(), OK: r.boolean(), Err: r.str()}
	case kindNack:
		body = &Nack{ID: r.identity(), Ref: r.str(), Reason: r.str()}
	case kindHeartbeat:
		body = &Heartbeat{ID: r.identity(), Seq: r.uvarint()}
	case kindAlarmBatch:
		ab := &AlarmBatch{Tier: r.str()}
		na := r.uvarint()
		// Each entry costs at least an identity (5 string lengths + pid),
		// policy + readings + suspect lengths, and two varints: 11 bytes.
		if na > uint64(len(r.buf)-r.pos)/11 {
			r.fail(ErrTruncated)
		} else {
			for i := uint64(0); i < na && r.err == nil; i++ {
				ab.Alarms = append(ab.Alarms, BatchedAlarm{
					Alarm: Alarm{ID: r.identity(), Policy: r.str(),
						Readings: r.f64map(), Suspect: r.str()},
					Count:    int(r.varint()),
					Severity: int(r.varint()),
				})
			}
		}
		ab.Summary = r.f64map()
		body = ab
	case kindTelemetrySummary:
		ts := &TelemetrySummary{Tier: r.str(), Source: r.str(),
			Seq: r.uvarint(), Hosts: r.uvarint(),
			Counters: r.f64map(), Maxima: r.f64map()}
		ns := r.uvarint()
		// Each sketch costs at least a name length, a count, three f64s
		// (sum/min/max), zero, base and a bucket count: 29 bytes.
		if ns > uint64(len(r.buf)-r.pos)/29 {
			r.fail(ErrTruncated)
		} else {
			for i := uint64(0); i < ns && r.err == nil; i++ {
				s := telemetry.NamedSketchSnapshot{Name: r.str()}
				s.Sketch.Count = r.uvarint()
				s.Sketch.Sum = r.f64()
				s.Sketch.Min = r.f64()
				s.Sketch.Max = r.f64()
				s.Sketch.Zero = r.uvarint()
				s.Sketch.Base = int(r.varint())
				nc := r.uvarint()
				if nc > uint64(len(r.buf)-r.pos) { // each bucket costs >= 1 byte
					r.fail(ErrTruncated)
					break
				}
				if nc > 0 {
					s.Sketch.Counts = make([]uint64, 0, nc)
					for j := uint64(0); j < nc && r.err == nil; j++ {
						s.Sketch.Counts = append(s.Sketch.Counts, r.uvarint())
					}
				}
				ts.Sketches = append(ts.Sketches, s)
			}
		}
		body = ts
	default:
		if r.err == nil {
			r.fail(fmt.Errorf("%w: %d", ErrBadKind, kind))
		}
	}
	if r.err != nil {
		return "", Message{}, r.err
	}
	if r.pos != len(r.buf) {
		return "", Message{}, fmt.Errorf("%w: %d extra payload bytes", ErrTrailingBytes, len(r.buf)-r.pos)
	}
	return to, Message{From: from, Trace: tc, Body: body}, nil
}
