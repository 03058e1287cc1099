package main

import "testing"

func TestRunBasic(t *testing.T) {
	cases := [][]string{
		{"-trials", "200", "-n", "60"},
		{"-trials", "200", "-walk", "-max-turn", "45"},
		{"-trials", "200", "-confine", "none"},
		{"-trials", "200", "-false-alarm", "0.001"},
		{"-trials", "200", "-workers", "2", "-seed", "9"},
		{"-trials", "200", "-exposure", "0.05"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-trials", "0"},
		{"-confine", "bogus"},
		{"-n", "-1"},
		{"-unknown"},
		{"-config", "/nonexistent/scenario.json"},
		{"-exposure", "-2", "-trials", "50"},
		{"-false-alarm", "NaN", "-trials", "200"},
		{"-exposure", "NaN", "-trials", "200"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
