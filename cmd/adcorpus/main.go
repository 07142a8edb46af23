// Command adcorpus materializes the synthetic Apollo-like corpus to disk
// for inspection or for use with external tools, and prints its summary
// statistics.
//
// Usage:
//
//	adcorpus [-out DIR] [-seed N] [-stats]
//
// Errors go to stderr with a nonzero exit code; the summary table is
// printed only after every requested action succeeded.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apollocorpus"
	"repro/internal/artifact"
	"repro/internal/ccparse"
	"repro/internal/metrics"
	"repro/internal/report"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adcorpus: %v\n", err)
		os.Exit(code)
	}
}

func run() (int, error) {
	outFlag := flag.String("out", "", "directory to write the corpus to (omit to skip writing)")
	seedFlag := flag.Int64("seed", 26262, "generation seed")
	statsFlag := flag.Bool("stats", true, "print corpus statistics")
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	fs := apollocorpus.Generate(apollocorpus.DefaultSpec(), *seedFlag)

	if *outFlag != "" {
		for _, f := range fs.Files() {
			dst := filepath.Join(*outFlag, filepath.FromSlash(f.Path))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return 1, err
			}
			if err := os.WriteFile(dst, []byte(f.Src), 0o644); err != nil {
				return 1, err
			}
		}
		fmt.Printf("Wrote %d files to %s\n", fs.Len(), *outFlag)
	}

	if *statsFlag {
		units, errs := ccparse.ParseAll(fs, ccparse.Options{})
		if len(errs) > 0 {
			return 1, fmt.Errorf("parse errors: %d (first: %v)", len(errs), errs[0])
		}
		fw := metrics.AnalyzeIndexed(artifact.Build(units))
		t := report.NewTable("Synthetic Apollo-like corpus", "Module", "Files", "LOC", "NLOC", "Functions", "MaxCCN")
		for _, m := range fw.Modules {
			t.AddRow(m.Name, m.Files, m.LOC, m.NLOC, m.Functions, m.MaxCCN)
		}
		t.Render(os.Stdout)
		fmt.Printf("\nTotal: %d LOC, %d functions, %d with CCN>=11 (calibration target 554)\n",
			fw.TotalLOC, fw.TotalFunc, fw.ModerateOrWorse)
	}
	return 0, nil
}
