package metrics

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The minimal Prometheus text-format validator behind the golden test:
// it enforces what a strict scraper enforces — metric-name syntax,
// HELP/TYPE comment shape, HELP/TYPE pairing, TYPE before the first
// sample of its family, parseable label blocks with only the three legal
// escapes (\\, \", \n), and float-parseable sample values.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promTypes   = map[string]bool{"counter": true, "gauge": true, "summary": true, "histogram": true, "untyped": true}
)

type promValidator struct {
	helped map[string]bool
	typed  map[string]string
	seen   map[string]bool // families with at least one sample
}

func validatePromText(text string) (*promValidator, error) {
	v := &promValidator{helped: map[string]bool{}, typed: map[string]string{}, seen: map[string]bool{}}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := v.comment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w (%q)", ln+1, err, line)
			}
			continue
		}
		if err := v.sample(line); err != nil {
			return nil, fmt.Errorf("line %d: %w (%q)", ln+1, err, line)
		}
	}
	for fam := range v.seen {
		if !v.helped[fam] {
			return nil, fmt.Errorf("family %s has samples but no HELP", fam)
		}
	}
	for fam := range v.helped {
		if _, ok := v.typed[fam]; !ok {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", fam)
		}
	}
	return v, nil
}

func (v *promValidator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment")
	}
	switch fields[1] {
	case "HELP":
		if !promNameRe.MatchString(fields[2]) {
			return fmt.Errorf("bad HELP metric name %q", fields[2])
		}
		if v.helped[fields[2]] {
			return fmt.Errorf("duplicate HELP for %s", fields[2])
		}
		v.helped[fields[2]] = true
	case "TYPE":
		if len(fields) != 4 || !promTypes[fields[3]] {
			return fmt.Errorf("bad TYPE")
		}
		if !promNameRe.MatchString(fields[2]) {
			return fmt.Errorf("bad TYPE metric name %q", fields[2])
		}
		if _, dup := v.typed[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		if v.seen[fields[2]] {
			return fmt.Errorf("TYPE for %s after its first sample", fields[2])
		}
		v.typed[fields[2]] = fields[3]
	default:
		return fmt.Errorf("unknown comment keyword %q", fields[1])
	}
	return nil
}

func (v *promValidator) sample(line string) error {
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !promNameRe.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end, err := parsePromLabels(rest)
		if err != nil {
			return err
		}
		rest = rest[end:]
	}
	value := strings.TrimSpace(rest)
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return fmt.Errorf("bad sample value %q", value)
	}
	// _count/_sum samples belong to their summary family.
	fam := name
	for _, suffix := range []string{"_count", "_sum"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && v.typed[base] == "summary" {
			fam = base
		}
	}
	if _, ok := v.typed[fam]; !ok {
		return fmt.Errorf("sample for %s precedes its TYPE", name)
	}
	v.seen[fam] = true
	return nil
}

// parsePromLabels validates a {label="value",...} block, returning the
// index just past the closing brace. Escapes inside values are limited
// to \\, \" and \n.
func parsePromLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j == len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if !promLabelRe.MatchString(s[i:j]) {
			return 0, fmt.Errorf("bad label name %q", s[i:j])
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return 0, fmt.Errorf("label value not quoted")
		}
		k := j + 2
		for k < len(s) && s[k] != '"' {
			if s[k] == '\\' {
				if k+1 >= len(s) || (s[k+1] != '\\' && s[k+1] != '"' && s[k+1] != 'n') {
					return 0, fmt.Errorf("illegal escape %q in label value", s[k:k+2])
				}
				k++
			}
			if s[k] == '\n' {
				return 0, fmt.Errorf("raw newline in label value")
			}
			k++
		}
		if k == len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		k++ // past closing quote
		switch {
		case k < len(s) && s[k] == ',':
			i = k + 1
		case k < len(s) && s[k] == '}':
			return k + 1, nil
		default:
			return 0, fmt.Errorf("expected , or } after label value")
		}
	}
}

func TestPrometheusOutputValidates(t *testing.T) {
	reg := NewRegistry()
	reg.Add("images_decoded_total", 64)
	reg.Add("decode_errors_total", 1)
	reg.RegisterGauge("degraded", func() float64 { return 0 })
	reg.RegisterQueue("full_batch", func() int { return 3 }, func() int { return 8 })
	reg.Observe(StageFPGADecode, 7.5)
	reg.Observe(StageFPGADecode, 9.25)
	reg.Event("degraded", "chaos")
	reg.CompleteSpan(Span{Batch: 1, Collected: time.Now(), Recycled: time.Now()})

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	v, err := validatePromText(b.String())
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, b.String())
	}
	for fam, typ := range map[string]string{
		"dlbooster_images_decoded_total": "counter",
		"dlbooster_degraded":             "gauge",
		"dlbooster_queue_depth":          "gauge",
		"dlbooster_stage_latency_ms":     "summary",
		"dlbooster_events_total":         "counter",
	} {
		if v.typed[fam] != typ {
			t.Fatalf("family %s typed %q, want %q", fam, v.typed[fam], typ)
		}
		if !v.seen[fam] {
			t.Fatalf("family %s has no samples", fam)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	// A queue name carrying every character the format escapes — plus a
	// tab, which Go's %q would have escaped illegally (\t is not a legal
	// exposition escape; the format wants the raw byte).
	hostile := "q\"uo\\te\nnew\tline"
	reg := NewRegistry()
	reg.RegisterQueue(hostile, func() int { return 1 }, func() int { return 2 })

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := validatePromText(b.String()); err != nil {
		t.Fatalf("hostile label does not validate: %v\n%s", err, b.String())
	}
	want := `queue="q\"uo\\te\nnew` + "\tline\""
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label %q not found in:\n%s", want, b.String())
	}
}

func TestPromValidatorRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"no_type_metric 1", // sample without TYPE
		"# HELP m help\n# TYPE m counter\nm{x=\"\\t\"} 1",        // illegal escape
		"# HELP m help\n# TYPE m counter\nm nope",                // bad value
		"# HELP m help\n# TYPE m counter\n# TYPE m counter\nm 1", // duplicate TYPE
		"# HELP 0bad help\n# TYPE 0bad counter\n0bad 1",          // bad name
		"# HELP m help\n# TYPE m wat\nm 1",                       // bad type
		"# HELP m help\nm 1",                                     // HELP without TYPE
		"# HELP m help\nm 1\n# TYPE m counter",                   // TYPE after first sample
	} {
		if _, err := validatePromText(bad); err == nil {
			t.Errorf("validator accepted %q", bad)
		}
	}
}
