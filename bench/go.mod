module transproc/bench

go 1.23.0

require transproc v0.0.0

replace transproc => ../
