package msg

import "fmt"

// Validate checks the semantic invariants a decoded management message
// must satisfy before a handler may see it: a known body type and the
// per-type fields the managers dereference unconditionally. Transports
// call it after decoding (and on local fast paths) so a semantically
// malformed but well-formed frame is logged and dropped with a counter
// instead of reaching a handler that would misbehave on it.
func Validate(m Message) error {
	switch b := m.Body.(type) {
	case Register, *Register, PolicySet, *PolicySet, Report, *Report,
		Ack, *Ack, Nack, *Nack:
		return nil
	case Violation:
		return validateViolation(b)
	case *Violation:
		return validateViolation(*b)
	case Alarm:
		return validateAlarm(b)
	case *Alarm:
		return validateAlarm(*b)
	case Query:
		return validateQuery(b)
	case *Query:
		return validateQuery(*b)
	case Directive:
		return validateDirective(b)
	case *Directive:
		return validateDirective(*b)
	case Heartbeat:
		return validateHeartbeat(b)
	case *Heartbeat:
		return validateHeartbeat(*b)
	case AlarmBatch:
		return validateAlarmBatch(b)
	case *AlarmBatch:
		return validateAlarmBatch(*b)
	case TelemetrySummary:
		return validateTelemetrySummary(b)
	case *TelemetrySummary:
		return validateTelemetrySummary(*b)
	case PolicyDelta:
		return validatePolicyDelta(b)
	case *PolicyDelta:
		return validatePolicyDelta(*b)
	default:
		return fmt.Errorf("msg: unknown body type %T", m.Body)
	}
}

func validateViolation(v Violation) error {
	if v.Policy == "" {
		return fmt.Errorf("msg: violation without a policy name")
	}
	if v.ID.PID <= 0 {
		return fmt.Errorf("msg: violation with non-positive pid %d", v.ID.PID)
	}
	return nil
}

func validateAlarm(a Alarm) error {
	if a.Policy == "" {
		return fmt.Errorf("msg: alarm without a policy name")
	}
	if a.ID.PID <= 0 {
		return fmt.Errorf("msg: alarm with non-positive pid %d", a.ID.PID)
	}
	return nil
}

func validateQuery(q Query) error {
	if len(q.Keys) == 0 {
		return fmt.Errorf("msg: query without keys")
	}
	return nil
}

func validateDirective(d Directive) error {
	if d.Action == "" {
		return fmt.Errorf("msg: directive without an action")
	}
	return nil
}

func validateHeartbeat(h Heartbeat) error {
	if h.ID.PID <= 0 {
		return fmt.Errorf("msg: heartbeat with non-positive pid %d", h.ID.PID)
	}
	return nil
}

func validateAlarmBatch(b AlarmBatch) error {
	if len(b.Alarms) == 0 && len(b.Summary) == 0 {
		return fmt.Errorf("msg: empty alarm batch")
	}
	for i, e := range b.Alarms {
		if err := validateAlarm(e.Alarm); err != nil {
			return fmt.Errorf("msg: batch entry %d: %w", i, err)
		}
		if e.Count < 1 {
			return fmt.Errorf("msg: batch entry %d with count %d", i, e.Count)
		}
	}
	return nil
}

func validatePolicyDelta(d PolicyDelta) error {
	if d.Executable == "" {
		return fmt.Errorf("msg: policy delta without an executable")
	}
	if d.Generation == 0 {
		return fmt.Errorf("msg: policy delta with generation 0")
	}
	if d.Prev >= d.Generation {
		return fmt.Errorf("msg: policy delta generation %d not after prev %d",
			d.Generation, d.Prev)
	}
	switch d.Scope {
	case "canary", "fleet", "rollback":
	default:
		return fmt.Errorf("msg: policy delta with unknown scope %q", d.Scope)
	}
	if d.Scope == "canary" && len(d.Hosts) == 0 {
		return fmt.Errorf("msg: canary policy delta without hosts")
	}
	return nil
}

func validateTelemetrySummary(t TelemetrySummary) error {
	if t.Tier == "" {
		return fmt.Errorf("msg: telemetry summary without a tier")
	}
	if t.Source == "" {
		return fmt.Errorf("msg: telemetry summary without a source")
	}
	for i, s := range t.Sketches {
		if s.Name == "" {
			return fmt.Errorf("msg: summary sketch %d without a name", i)
		}
		// A sketch's total must equal its buckets, or merging it would
		// corrupt the aggregate's count arithmetic.
		total := s.Sketch.Zero
		for _, c := range s.Sketch.Counts {
			total += c
		}
		if total != s.Sketch.Count {
			return fmt.Errorf("msg: summary sketch %q count %d != bucket total %d",
				s.Name, s.Sketch.Count, total)
		}
	}
	return nil
}
