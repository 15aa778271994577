// p2gc is the P2G kernel-language compiler driver: it checks .p2g programs,
// prints their dependency graphs (the paper's figures 2-4) in Graphviz DOT
// form, and disassembles the register bytecode kernel bodies compile to.
//
// Usage:
//
//	p2gc [-check] [-disasm] [-graph intermediate|final|dcdag] [-ages N] program.p2g
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/lang"
)

func main() {
	check := flag.Bool("check", false, "parse and validate only")
	disasm := flag.Bool("disasm", false, "print the register-bytecode listing for every kernel")
	graphKind := flag.String("graph", "", "print a graph: intermediate, final or dcdag")
	ages := flag.Int("ages", 3, "ages to unroll for -graph dcdag")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: p2gc [-check] [-disasm] [-graph intermediate|final|dcdag] [-ages N] program.p2g")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	name := strings.TrimSuffix(path, ".p2g")
	prog, err := lang.Compile(name, string(src))
	if err != nil {
		fail("%s:%v", path, err)
	}
	fin := graph.BuildFinal(prog)
	if err := fin.CheckSchedulable(); err != nil {
		fail("%s: %v", path, err)
	}
	if *disasm {
		listings, err := lang.Disassemble(name, string(src))
		if err != nil {
			fail("%s:%v", path, err)
		}
		for _, l := range listings {
			fmt.Print(l.Text)
		}
		return
	}
	if *check {
		fmt.Printf("%s: %d fields, %d kernels, OK\n", path, len(prog.Fields), len(prog.Kernels))
		listings, err := lang.Disassemble(name, string(src))
		if err != nil {
			fail("%s:%v", path, err)
		}
		for _, l := range listings {
			fmt.Printf("  kernel %-12s %d bytecode instructions\n", l.Kernel, l.Instructions)
		}
		return
	}
	switch *graphKind {
	case "":
		fmt.Printf("%s: %d fields, %d kernels\n", path, len(prog.Fields), len(prog.Kernels))
		for _, k := range prog.Kernels {
			fmt.Printf("  kernel %-12s fetches=%d stores=%d", k.Name, len(k.Fetches), len(k.Stores))
			switch {
			case k.RunOnce():
				fmt.Print("  [run-once]")
			case k.Source():
				fmt.Print("  [source]")
			}
			fmt.Println()
		}
	case "intermediate":
		fmt.Print(graph.BuildIntermediate(prog).DOT(prog.Name))
	case "final":
		fmt.Print(fin.DOT(prog.Name))
	case "dcdag":
		fmt.Print(graph.Unroll(fin, *ages).DOT(prog.Name))
	default:
		fail("unknown graph kind %q", *graphKind)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p2gc: "+format+"\n", args...)
	os.Exit(1)
}
