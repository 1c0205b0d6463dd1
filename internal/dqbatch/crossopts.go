package dqbatch

import (
	"fmt"
	"strings"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// defaultWindows are the timeliness check's freshness windows when none
// are given.
var defaultWindows = []string{"24h", "168h"}

// CrossOptions are the uniqueness and timeliness checks' textual options,
// spelled alike by `dqwebre batch` flags and dqserve job parameters (and
// stored in a job's manifest under the same JSON names). Checks is the one
// place both front ends turn them into checks, so a report never depends
// on which front end asked for it.
type CrossOptions struct {
	// Unique lists the key fields that must be unique; none means no
	// uniqueness check.
	Unique []string `json:"unique,omitempty"`
	// UniqueMaxExact is UniquenessCheck.MaxExact.
	UniqueMaxExact int `json:"unique_max_exact,omitempty"`
	// Timeliness names the timestamp field; "" means no timeliness check.
	Timeliness string `json:"timeliness,omitempty"`
	// Windows are freshness windows as durations ("24h"); an empty list
	// means defaultWindows.
	Windows []string `json:"windows,omitempty"`
	// MaxAge and MaxSkew are durations; "" means the check's default.
	MaxAge  string `json:"max_age,omitempty"`
	MaxSkew string `json:"max_skew,omitempty"`
}

// Checks builds the checks the options ask for in report order:
// uniqueness, then the given referential checks (built from a reference
// dataset, which only the CLI reads), then timeliness.
func (o CrossOptions) Checks(refs ...dqruntime.StatefulCheck) ([]dqruntime.StatefulCheck, error) {
	var cross []dqruntime.StatefulCheck
	if len(o.Unique) > 0 {
		cross = append(cross, dqruntime.UniquenessCheck{Fields: o.Unique, MaxExact: o.UniqueMaxExact})
	}
	cross = append(cross, refs...)
	if o.Timeliness == "" {
		return cross, nil
	}
	windows := o.Windows
	if len(windows) == 0 {
		windows = defaultWindows
	}
	var wins []time.Duration
	for _, w := range windows {
		d, err := time.ParseDuration(w)
		if err != nil {
			return nil, fmt.Errorf("bad windows entry %q: %w", w, err)
		}
		wins = append(wins, d)
	}
	maxAge, err := optionalDuration("max_age", o.MaxAge)
	if err != nil {
		return nil, err
	}
	maxSkew, err := optionalDuration("max_skew", o.MaxSkew)
	if err != nil {
		return nil, err
	}
	return append(cross, dqruntime.TimelinessCheck{
		Field:   o.Timeliness,
		Windows: wins,
		MaxAge:  maxAge,
		MaxSkew: maxSkew,
	}), nil
}

// SplitList splits a comma-separated list, trimming whitespace and
// dropping empty entries. Both front ends fill CrossOptions' lists with
// it, so a flag and a query parameter of the same text split alike.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// optionalDuration parses a duration option, "" meaning 0.
func optionalDuration(name, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", name, v, err)
	}
	return d, nil
}
