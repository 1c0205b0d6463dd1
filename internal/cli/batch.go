package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/transform"
)

// cmdBatch validates a whole record file against a model's DQ
// requirements: the dataset-scale counterpart of the per-form enforcement
// the EasyChair app performs. It accepts either a DQSR model directly or
// a DQ_WebRE requirements model (which it transforms first), streams
// NDJSON or CSV records through the dqbatch worker pool, and reports the
// merged per-characteristic statistics as text or JSON. Cross-record
// checks ride along: -unique enforces key uniqueness across the dataset,
// -ref/-ref-key runs the two-pass referential check (first pass builds
// the reference key set, second validates foreign keys against it), and
// -timeliness measures dataset freshness windows.
func cmdBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	modelPath := fs.String("model", "", "DQSR (or DQ_WebRE requirements) model file")
	in := fs.String("in", "", "records file: NDJSON or CSV ('-' = stdin)")
	format := fs.String("format", "", "ndjson or csv (default: from the file extension)")
	workers := fs.Int("workers", 0, "validation workers (0 = GOMAXPROCS)")
	report := fs.String("report", "text", "report format: text or json")
	exemplars := fs.Int("exemplars", 3, "failure exemplars kept per characteristic (-1 = none)")
	decodeErrs := fs.Int("decode-errors", 10, "decode errors reported with line numbers (-1 = none)")
	crossOpts := crossFlags(fs)
	ref := fs.String("ref", "", "reference records file for the referential check (NDJSON or CSV)")
	refKey := fs.String("ref-key", "", "comma-separated key fields in the reference file")
	refField := fs.String("ref-field", "", "comma-separated foreign-key fields in the validated records (default: -ref-key)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the batch run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the batch finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("batch takes no positional arguments")
	}
	if *modelPath == "" || *in == "" {
		return fmt.Errorf("batch needs -model and -in")
	}
	if *report != "text" && *report != "json" {
		return fmt.Errorf("unknown report format %q (text or json)", *report)
	}
	if *format != "" && *format != "ndjson" && *format != "csv" {
		return fmt.Errorf("unknown record format %q (ndjson or csv)", *format)
	}

	if (*ref == "") != (*refKey == "") {
		return fmt.Errorf("-ref and -ref-key go together")
	}

	// Profiling hooks: where batch time goes (ingest vs eval) can be
	// captured by the command directly instead of requiring a test-harness
	// run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dqwebre: writing -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dqwebre: writing -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	enf, err := LoadEnforcer(*modelPath)
	if err != nil {
		return err
	}
	src, closeIn, err := openSource(*in, *format)
	if err != nil {
		return err
	}
	defer closeIn()

	// A batch over millions of records can run a while; Ctrl-C stops the
	// stream and still prints the partial report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var refs []dqruntime.StatefulCheck
	if *ref != "" {
		// First pass: stream the reference dataset into an exact key set.
		refSrc, closeRef, err := openSource(*ref, "")
		if err != nil {
			return err
		}
		keys, err := dqbatch.BuildKeySet(ctx, refSrc, dqbatch.SplitList(*refKey))
		closeRef()
		if err != nil {
			return fmt.Errorf("building reference key set from %s: %w", *ref, err)
		}
		fkFields := *refField
		if fkFields == "" {
			fkFields = *refKey
		}
		refs = append(refs, dqruntime.ReferentialCheck{
			Fields:  dqbatch.SplitList(fkFields),
			Ref:     keys,
			RefName: filepath.Base(*ref),
		})
	}
	cross, err := crossOpts().Checks(refs...)
	if err != nil {
		return err
	}
	res, runErr := dqbatch.Run(ctx, enf.Validator(), src, dqbatch.Options{
		Workers:         *workers,
		MaxExemplars:    *exemplars,
		MaxDecodeErrors: *decodeErrs,
		CrossRecord:     cross,
	})
	// RenderReport is the single rendering path shared with the job server
	// (internal/dqserve): a SIGINT partial report here and a cancelled job's
	// report there come out byte-identical.
	if err := dqbatch.RenderReport(out, res, *report); err != nil {
		return err
	}
	return runErr
}

// crossFlags registers the uniqueness and timeliness flags on fs and
// returns the options they hold once fs is parsed: the dqbatch
// CrossOptions a dqserve job reads from its query, spelled as flags.
func crossFlags(fs *flag.FlagSet) func() dqbatch.CrossOptions {
	unique := fs.String("unique", "", "comma-separated key fields that must be unique across the dataset")
	uniqueMaxExact := fs.Int("unique-max-exact", 0,
		"distinct keys tracked exactly before the uniqueness check degrades to a Bloom filter (0 = default, -1 = always exact)")
	timeliness := fs.String("timeliness", "", "timestamp field for the dataset timeliness check")
	windows := fs.String("windows", "", "comma-separated freshness windows for -timeliness (empty = 24h,168h)")
	maxAge := fs.String("max-age", "", "oldest acceptable age for -timeliness, a duration (empty = the largest window)")
	maxSkew := fs.String("max-skew", "", "future-timestamp tolerance for -timeliness, a duration (empty = 5m)")
	return func() dqbatch.CrossOptions {
		return dqbatch.CrossOptions{
			Unique:         dqbatch.SplitList(*unique),
			UniqueMaxExact: *uniqueMaxExact,
			Timeliness:     *timeliness,
			Windows:        dqbatch.SplitList(*windows),
			MaxAge:         *maxAge,
			MaxSkew:        *maxSkew,
		}
	}
}

// LoadEnforcer loads a model file and assembles its runtime enforcer,
// running the DQR→DQSR transformation first when the file holds a
// requirements model rather than a DQSR model. The serve command injects
// it into the dqserve job server as its model loader.
func LoadEnforcer(path string) (*dqruntime.Enforcer, error) {
	m, err := loadModel(path)
	if err != nil {
		return nil, err
	}
	if _, ok := m.Metamodel().FindClass("SoftwareRequirement"); !ok {
		dqsr, _, err := transform.RunDQR2DQSR(asRequirements(m))
		if err != nil {
			return nil, err
		}
		m = dqsr
	}
	return dqruntime.BuildFromDQSR(m)
}

// openSource opens the record stream, picking the decoder from -format or
// the file extension (.csv → CSV, anything else → NDJSON). File paths go
// through dqbatch.OpenFileSource, stdin straight to the same streaming
// sources, so a file and stdin of the same bytes report alike.
func openSource(path, format string) (dqbatch.Source, func() error, error) {
	if format != "" && format != "ndjson" && format != "csv" {
		return nil, nil, fmt.Errorf("unknown record format %q (ndjson or csv)", format)
	}
	if path == "-" {
		closeIn := func() error { return nil }
		if format == "csv" {
			return dqbatch.NewCSVSource(os.Stdin), closeIn, nil
		}
		return dqbatch.NewNDJSONSource(os.Stdin), closeIn, nil
	}
	return dqbatch.OpenFileSource(path, format)
}
