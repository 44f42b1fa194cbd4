module laxgpu/bench

go 1.22

require laxgpu v0.0.0

replace laxgpu => ../
